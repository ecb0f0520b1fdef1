package sim

import "testing"

// Alloc-regression guard: a pooled Runtime's steady-state (post-warmup)
// run must be allocation-free on the fault-free, crash and link-fault
// paths — the delay ring, like every other arena buffer, grows to the
// run's peak once and then recycles.

// The guard's protocol is the shared broadcaster benchmark harness
// (engine_bench_test.go): fixed fanout of one-bit payloads, persistent
// pre-sized outbox, resettable.

// allocDelayFilter delays a deterministic slice of the traffic and
// drops another, with MaxDelay 2, using no per-verdict state.
type allocDelayFilter struct{}

func (allocDelayFilter) FilterSend(_ int, _ NodeID, out []Envelope) ([]Envelope, bool) {
	return out, false
}

func (allocDelayFilter) FilterLink(round int, env Envelope) Verdict {
	switch (env.From + env.To + round) % 7 {
	case 0:
		return Drop
	case 1:
		return DelayBy(1)
	case 2:
		return DelayBy(2)
	default:
		return Deliver
	}
}

func (allocDelayFilter) MaxDelay() int { return 2 }

// resetWordFlood rewinds the lane-parallel flooding system to its
// initial state so the sliced alloc guard reuses one system across
// runs (a fresh system would charge its own construction to the run).
func resetWordFlood(w *wordFlood, inputs []bool) {
	for i := range w.candidate {
		w.candidate[i], w.pending[i] = 0, 0
		if i < len(inputs) && inputs[i] {
			w.candidate[i], w.pending[i] = w.all, w.all
		}
		w.flooded[i], w.decided[i], w.decision[i], w.halted[i] = 0, 0, 0, 0
	}
}

// TestRuntimeSlicedSteadyStateAllocs is the sliced engine's 0-alloc
// guard: a pooled sliced run at full width — with per-lane crash
// schedules and link filters in the mix — must be allocation-free once
// the arena has grown to the shape's peak.
func TestRuntimeSlicedSteadyStateAllocs(t *testing.T) {
	const n, tBound, lanes = 128, 8, 64
	inputs := make([]bool, n)
	for i := range inputs {
		inputs[i] = i%3 == 0
	}
	faults := make([]LinkFault, lanes)
	for lane := range faults {
		switch lane % 3 {
		case 1:
			faults[lane] = planCrash{events: laneCrashEvents(n, n/8, tBound+2, uint64(500+lane))}
		case 2:
			faults[lane] = hashLink{d: 2, seed: uint64(900 + lane)}
		}
	}
	w := newWordFlood(n, tBound, lanes, inputs)
	cfg := SlicedConfig{System: w, Lanes: lanes, MaxRounds: tBound + 2 + 4, Faults: faults}
	rt := NewRuntime()
	var runErr error
	oneRun := func() {
		resetWordFlood(w, inputs)
		if _, err := rt.RunSliced(cfg); err != nil {
			runErr = err
		}
	}
	oneRun()
	oneRun()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if allocs := testing.AllocsPerRun(5, oneRun); allocs != 0 {
		t.Fatalf("steady-state sliced run allocated %.1f times; want 0", allocs)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
}

func TestRuntimeSteadyStateAllocs(t *testing.T) {
	const n, fanout, horizon = 256, 4, 12
	cases := []struct {
		name  string
		fault LinkFault
	}{
		{name: "fault-free", fault: nil},
		{name: "crash", fault: newMultiCrash(n, n/8, horizon, 99)},
		{name: "link-delay", fault: allocDelayFilter{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ps := make([]Protocol, n)
			bs := make([]*broadcaster, n)
			for i := 0; i < n; i++ {
				bs[i] = &broadcaster{id: i, n: n, fanout: fanout, horizon: horizon,
					out: make([]Envelope, 0, fanout)}
				ps[i] = bs[i]
			}
			cfg := Config{Protocols: ps, Fault: c.fault, MaxRounds: horizon + 4}
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
			// Two warmup runs grow every arena buffer to its peak.
			oneRun()
			oneRun()
			if runErr != nil {
				t.Fatal(runErr)
			}
			if allocs := testing.AllocsPerRun(5, oneRun); allocs != 0 {
				t.Fatalf("steady-state pooled run allocated %.1f times; want 0", allocs)
			}
			if runErr != nil {
				t.Fatal(runErr)
			}
		})
	}
}
