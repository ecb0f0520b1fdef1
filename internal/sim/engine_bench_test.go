package sim

import (
	"fmt"
	"testing"
)

// Engine micro-benchmarks: the cost of simulating one round at various
// message volumes. These calibrate how large the
// experiment sweeps can go. The broadcaster protocol is deliberately
// allocation-free (persistent outbox, reset between iterations) so the
// numbers measure the engine, not the test harness; BENCH_sim.json
// tracks BenchmarkEngine across PRs.

type broadcaster struct {
	id, n, fanout, horizon int
	rounds                 int
	out                    []Envelope
}

func (b *broadcaster) Send(round int) []Envelope {
	if b.out == nil {
		b.out = make([]Envelope, 0, b.fanout)
	}
	out := b.out[:0]
	for k := 1; k <= b.fanout; k++ {
		out = append(out, Envelope{From: b.id, To: (b.id + k) % b.n, Payload: Bit(true)})
	}
	b.out = out
	return out
}

func (b *broadcaster) Deliver(round int, _ []Envelope) { b.rounds++ }
func (b *broadcaster) Halted() bool                    { return b.rounds >= b.horizon }
func (b *broadcaster) reset()                          { b.rounds = 0 }

func benchEngineRun(b *testing.B, n, fanout, horizon int, run func(Config) (*Result, error)) {
	b.Helper()
	ps := make([]Protocol, n)
	bs := make([]*broadcaster, n)
	for j := 0; j < n; j++ {
		// Pre-size the persistent outbox so the harness protocol is
		// allocation-free from the first round.
		bs[j] = &broadcaster{id: j, n: n, fanout: fanout, horizon: horizon,
			out: make([]Envelope, 0, fanout)}
		ps[j] = bs[j]
	}
	cfg := Config{Protocols: ps, MaxRounds: horizon + 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bc := range bs {
			bc.reset()
		}
		res, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics.Messages != int64(n)*int64(fanout)*int64(horizon) {
			b.Fatalf("messages = %d", res.Metrics.Messages)
		}
	}
}

// BenchmarkEngine is the headline engine benchmark tracked in
// BENCH_sim.json: the multi-port sequential engine at n=1000, fanout 8,
// 20 rounds. Per-iteration cost divided by the horizon gives ns/round.
func BenchmarkEngine(b *testing.B) {
	benchEngineRun(b, 1000, 8, 20, Run)
}

func BenchmarkEngineSequential(b *testing.B) {
	for _, c := range []struct{ n, fanout int }{{256, 8}, {1024, 8}, {256, 64}, {4096, 8}} {
		b.Run(fmt.Sprintf("n=%d/fanout=%d", c.n, c.fanout), func(b *testing.B) {
			benchEngineRun(b, c.n, c.fanout, 20, Run)
		})
	}
}

// BenchmarkEngineReuse measures the arena: k consecutive runs on one
// Runtime, so the per-op numbers are the amortized steady-state cost
// of a repeated run — allocs/op is ~0 once the buffers have grown.
// This is the shape sweeps and replications pay per point.
func BenchmarkEngineReuse(b *testing.B) {
	for _, c := range []struct{ n, fanout int }{{1000, 8}, {4096, 8}} {
		b.Run(fmt.Sprintf("n=%d/fanout=%d", c.n, c.fanout), func(b *testing.B) {
			benchEngineRun(b, c.n, c.fanout, 20, NewRuntime().Run)
		})
	}
}

func BenchmarkSinglePortEngine(b *testing.B) {
	const n, horizon = 512, 64
	ps := make([]Protocol, n)
	rs := make([]*relayer, n)
	for j := 0; j < n; j++ {
		rs[j] = &relayer{id: j, n: n, lifetime: horizon}
		ps[j] = rs[j]
	}
	cfg := Config{Protocols: ps, MaxRounds: horizon + 4, SinglePort: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rs {
			*r = relayer{id: r.id, n: n, lifetime: horizon}
		}
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
