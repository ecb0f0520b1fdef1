package lineartime

import (
	"fmt"
	"testing"

	"lineartime/internal/consensus"
	"lineartime/internal/crash"
	"lineartime/internal/expander"
	"lineartime/internal/sim"
)

// Ablations for the design choices called out in DESIGN.md: the
// overlay degree d trades message volume (every little node sends d
// messages per flood/probing round) against fault tolerance (the
// survival threshold δ = d/4 shrinks with d, making local probing
// easier to pause). The benchmarks print the rounds/messages series;
// the tests pin correctness across the whole parameter range.

// BenchmarkAblationOverlayDegree sweeps the little-overlay degree for
// Few-Crashes-Consensus at fixed (n, t).
func BenchmarkAblationOverlayDegree(b *testing.B) {
	const n, t = 256, 42
	for _, d := range []int{8, 16, 24, 32} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := RunConsensus(n, t, benchInputs(n),
					WithSeed(1), WithOverlayDegree(d), WithRandomCrashes(t, 5*t))
				if err != nil {
					b.Fatal(err)
				}
				reportConsensus(b, r)
			}
		})
	}
}

// BenchmarkAblationProbingDelta sweeps the survival threshold δ on the
// AEA stage directly: larger δ demands denser surviving neighborhoods,
// shrinking the decider set under targeted crashes.
func BenchmarkAblationProbingDelta(b *testing.B) {
	const n, t = 250, 41
	for _, delta := range []int{2, 4, 8, 12} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			top, err := consensus.NewTopology(n, t, consensus.TopologyOptions{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			// Rebuild the little overlay with the ablated δ.
			little, err := expander.New(top.L, expander.Options{
				Degree: top.Little.P.Degree, Delta: delta, Seed: top.Little.Seed,
			})
			if err != nil {
				b.Fatal(err)
			}
			top.Little = little
			for i := 0; i < b.N; i++ {
				ms := make([]*consensus.AEA, n)
				ps := make([]sim.Protocol, n)
				for j := 0; j < n; j++ {
					ms[j] = consensus.NewAEA(j, top, j%3 == 0, 0, true)
					ps[j] = ms[j]
				}
				res, err := sim.Run(sim.Config{
					Protocols: ps,
					Fault:     crash.NewTargetLittle(top.L, t, 3),
					MaxRounds: top.Schedule.AEA + 4,
				})
				if err != nil {
					b.Fatal(err)
				}
				deciders := 0
				for j, m := range ms {
					if !res.Crashed.Contains(j) {
						if _, ok := m.Decided(); ok {
							deciders++
						}
					}
				}
				b.ReportMetric(float64(deciders), "deciders")
				b.ReportMetric(float64(res.Metrics.Messages), "msgs")
			}
		})
	}
}

// TestDegreeAblationCorrectness pins that consensus stays correct over
// the whole overlay-degree range the ablation sweeps.
func TestDegreeAblationCorrectness(t *testing.T) {
	const n, tt = 100, 20
	inputs := boolInputs(n, func(i int) bool { return i%3 == 0 })
	for _, d := range []int{8, 16, 24, 32} {
		r, err := RunConsensus(n, tt, inputs,
			WithSeed(2), WithOverlayDegree(d), WithRandomCrashes(tt, 60))
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if !r.Agreement || !r.Validity {
			t.Fatalf("d=%d: agreement=%v validity=%v", d, r.Agreement, r.Validity)
		}
	}
}

// TestDegreeTradeoffShape pins the ablation's headline: messages grow
// with the degree (the d-factor in every flood/probing round).
func TestDegreeTradeoffShape(t *testing.T) {
	const n, tt = 200, 40
	inputs := boolInputs(n, func(i int) bool { return i%3 == 0 })
	low, err := RunConsensus(n, tt, inputs, WithSeed(3), WithOverlayDegree(8))
	if err != nil {
		t.Fatal(err)
	}
	high, err := RunConsensus(n, tt, inputs, WithSeed(3), WithOverlayDegree(32))
	if err != nil {
		t.Fatal(err)
	}
	if high.Metrics.Messages <= low.Metrics.Messages {
		t.Fatalf("degree 32 sent %d ≤ degree 8's %d messages; the d-factor vanished",
			high.Metrics.Messages, low.Metrics.Messages)
	}
}
