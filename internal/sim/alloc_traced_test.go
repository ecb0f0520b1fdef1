package sim

import (
	"testing"

	"lineartime/internal/obs"
)

// TestRuntimeTracedSteadyStateAllocs is the observability variant of
// the 0-alloc guards: every engine must stay allocation-free in steady
// state WITH a metrics-backed tracer installed. This is the hard
// constraint that makes the obs layer safe to leave on in production —
// the tracer path uses pre-registered handles (no map lookups, no
// label allocation per run), and the guard proves it.
func TestRuntimeTracedSteadyStateAllocs(t *testing.T) {
	tracer := obs.NewEngineTracer(obs.NewRegistry())

	guard := func(t *testing.T, oneRun func(), runErr *error) {
		t.Helper()
		oneRun()
		oneRun()
		if *runErr != nil {
			t.Fatal(*runErr)
		}
		if allocs := testing.AllocsPerRun(5, oneRun); allocs != 0 {
			t.Fatalf("traced steady-state run allocated %.1f times; want 0", allocs)
		}
		if *runErr != nil {
			t.Fatal(*runErr)
		}
	}

	t.Run("sequential", func(t *testing.T) {
		const n, fanout, horizon = 256, 4, 12
		ps := make([]Protocol, n)
		bs := make([]*broadcaster, n)
		for i := 0; i < n; i++ {
			bs[i] = &broadcaster{id: i, n: n, fanout: fanout, horizon: horizon,
				out: make([]Envelope, 0, fanout)}
			ps[i] = bs[i]
		}
		cfg := Config{Protocols: ps, Fault: allocDelayFilter{}, MaxRounds: horizon + 4,
			Tracer: tracer}
		rt := NewRuntime()
		var runErr error
		oneRun := func() {
			for _, b := range bs {
				b.reset()
			}
			if _, err := rt.Run(cfg); err != nil {
				runErr = err
			}
		}
		guard(t, oneRun, &runErr)
	})

	t.Run("sliced", func(t *testing.T) {
		const n, tBound, lanes = 128, 8, 64
		inputs := make([]bool, n)
		for i := range inputs {
			inputs[i] = i%3 == 0
		}
		w := newWordFlood(n, tBound, lanes, inputs)
		cfg := SlicedConfig{System: w, Lanes: lanes, MaxRounds: tBound + 6,
			Tracer: tracer}
		rt := NewRuntime()
		var runErr error
		oneRun := func() {
			resetWordFlood(w, inputs)
			if _, err := rt.RunSliced(cfg); err != nil {
				runErr = err
			}
		}
		guard(t, oneRun, &runErr)
	})
}
