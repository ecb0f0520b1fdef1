// Benchmarks regenerating the paper's evaluation artifacts (Table 1
// and the per-theorem performance claims; the paper has no figures).
// Each benchmark reports the paper's two metrics — rounds and
// communication — as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// prints the series recorded in EXPERIMENTS.md. Correctness is
// asserted inside every iteration: a benchmark that agrees on nothing
// measures nothing.
package lineartime

import (
	"fmt"
	"math"
	"testing"

	"lineartime/internal/consensus"
	"lineartime/internal/crash"
	"lineartime/internal/lowerbound"
	"lineartime/internal/sim"
)

func benchInputs(n int) []bool {
	in := make([]bool, n)
	for i := range in {
		in[i] = i%3 == 0
	}
	return in
}

func benchRumors(n int) []uint64 {
	r := make([]uint64, n)
	for i := range r {
		r[i] = uint64(i)
	}
	return r
}

func reportConsensus(b *testing.B, r *ConsensusReport) {
	b.Helper()
	if !r.Agreement || !r.Validity {
		b.Fatalf("correctness violated: agreement=%v validity=%v", r.Agreement, r.Validity)
	}
	b.ReportMetric(float64(r.Metrics.Rounds), "rounds")
	b.ReportMetric(float64(r.Metrics.Messages), "msgs")
	b.ReportMetric(float64(r.Metrics.Bits), "wire-bits")
}

// BenchmarkTable1 regenerates the Table 1 rows: each sub-benchmark
// runs one (fault type, problem) entry at its claimed boundary t.
func BenchmarkTable1(b *testing.B) {
	const n = 512
	lg := math.Log2(float64(n))
	b.Run("crash-consensus-boundary", func(b *testing.B) {
		t := int(float64(n) / lg)
		if 5*t > n {
			t = n / 5
		}
		for i := 0; i < b.N; i++ {
			r, err := RunConsensus(n, t, benchInputs(n),
				WithSeed(1), WithRandomCrashes(t, 5*t))
			if err != nil {
				b.Fatal(err)
			}
			reportConsensus(b, r)
		}
	})
	b.Run("crash-consensus-single-port", func(b *testing.B) {
		t := int(float64(n) / lg)
		if 5*t > n {
			t = n / 5
		}
		for i := 0; i < b.N; i++ {
			r, err := RunConsensus(n, t, benchInputs(n),
				WithSeed(1), WithAlgorithm(SinglePortLinear))
			if err != nil {
				b.Fatal(err)
			}
			reportConsensus(b, r)
		}
	})
	b.Run("crash-gossip-boundary", func(b *testing.B) {
		t := int(float64(n) / (lg * lg))
		for i := 0; i < b.N; i++ {
			r, err := RunGossip(n, t, benchRumors(n), false,
				WithSeed(1), WithRandomCrashes(t, 40))
			if err != nil {
				b.Fatal(err)
			}
			if !r.Complete {
				b.Fatal("gossip incomplete")
			}
			b.ReportMetric(float64(r.Metrics.Rounds), "rounds")
			b.ReportMetric(float64(r.Metrics.Messages), "msgs")
		}
	})
	b.Run("crash-checkpointing-boundary", func(b *testing.B) {
		t := int(float64(n) / (lg * lg))
		for i := 0; i < b.N; i++ {
			r, err := RunCheckpointing(n, t, false,
				WithSeed(1), WithRandomCrashes(t, 40))
			if err != nil {
				b.Fatal(err)
			}
			if !r.Agreement {
				b.Fatal("checkpointing disagreement")
			}
			b.ReportMetric(float64(r.Metrics.Rounds), "rounds")
			b.ReportMetric(float64(r.Metrics.Messages), "msgs")
		}
	})
	b.Run("byzantine-consensus-boundary", func(b *testing.B) {
		t := int(math.Sqrt(float64(n)) / 2)
		corrupted := make([]int, t)
		for i := range corrupted {
			corrupted[i] = i
		}
		for i := 0; i < b.N; i++ {
			r, err := RunByzantineConsensus(n, t, benchRumors(n), false,
				WithSeed(1), WithByzantine(Equivocate, corrupted...))
			if err != nil {
				b.Fatal(err)
			}
			if !r.Agreement {
				b.Fatal("byzantine disagreement")
			}
			b.ReportMetric(float64(r.Metrics.Rounds), "rounds")
			b.ReportMetric(float64(r.Metrics.Messages), "msgs")
		}
	})
}

// BenchmarkAEA is experiment E2 (Theorem 5): almost-everywhere
// agreement under little-node-targeted crashes.
func BenchmarkAEA(b *testing.B) {
	for _, n := range []int{250, 500, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			t := n / 6
			top, err := consensus.NewTopology(n, t, consensus.TopologyOptions{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
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
				if deciders*5 < 3*n {
					b.Fatalf("only %d deciders, want ≥ 3n/5", deciders)
				}
				b.ReportMetric(float64(res.Metrics.Rounds), "rounds")
				b.ReportMetric(float64(res.Metrics.Messages), "msgs")
			}
		})
	}
}

// BenchmarkSCV is experiment E3 (Theorem 6), covering both branches of
// Part 2.
func BenchmarkSCV(b *testing.B) {
	for _, c := range []struct{ n, t int }{{400, 10}, {400, 80}, {1600, 30}} {
		name := fmt.Sprintf("n=%d/t=%d", c.n, c.t)
		b.Run(name, func(b *testing.B) {
			top, err := consensus.NewTopology(c.n, c.t, consensus.TopologyOptions{Seed: 2})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				ms := make([]*consensus.SCV, c.n)
				ps := make([]sim.Protocol, c.n)
				for j := 0; j < c.n; j++ {
					ms[j] = consensus.NewSCV(j, top, j < 3*c.n/5, true, 0, true)
					ps[j] = ms[j]
				}
				res, err := sim.Run(sim.Config{Protocols: ps, MaxRounds: top.Schedule.SCV + 4})
				if err != nil {
					b.Fatal(err)
				}
				for j, m := range ms {
					if _, ok := m.Decided(); !ok {
						b.Fatalf("node %d undecided", j)
					}
				}
				b.ReportMetric(float64(res.Metrics.Rounds), "rounds")
				b.ReportMetric(float64(res.Metrics.Messages), "msgs")
			}
		})
	}
}

// BenchmarkFewCrashesConsensus is experiment E4 (Theorem 7).
func BenchmarkFewCrashesConsensus(b *testing.B) {
	for _, n := range []int{128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			t := n / 6
			for i := 0; i < b.N; i++ {
				r, err := RunConsensus(n, t, benchInputs(n),
					WithSeed(1), WithRandomCrashes(t, 5*t))
				if err != nil {
					b.Fatal(err)
				}
				reportConsensus(b, r)
			}
		})
	}
}

// BenchmarkManyCrashesConsensus is experiment E5 (Theorem 8 and
// Corollary 1: α up to 1 − 1/n).
func BenchmarkManyCrashesConsensus(b *testing.B) {
	const n = 256
	for _, alpha := range []float64{0.2, 0.5, 0.9} {
		t := int(alpha * float64(n))
		b.Run(fmt.Sprintf("alpha=%.1f", alpha), func(b *testing.B) {
			benchMany(b, n, t)
		})
	}
	b.Run("alpha=max(t=n-1)", func(b *testing.B) { benchMany(b, n, n-1) })
}

func benchMany(b *testing.B, n, t int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := RunConsensus(n, t, benchInputs(n),
			WithSeed(3), WithAlgorithm(ManyCrashes), WithRandomCrashes(t, n))
		if err != nil {
			b.Fatal(err)
		}
		reportConsensus(b, r)
		if lim := n + 8*(1+int(math.Ceil(math.Log2(float64(n))))); r.Metrics.Rounds > lim {
			b.Fatalf("rounds %d above Theorem 8 budget %d", r.Metrics.Rounds, lim)
		}
	}
}

// BenchmarkGossip is experiment E6 (Theorem 9).
func BenchmarkGossip(b *testing.B) {
	for _, n := range []int{128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			t := n / 6
			for i := 0; i < b.N; i++ {
				r, err := RunGossip(n, t, benchRumors(n), false,
					WithSeed(1), WithRandomCrashes(t, 60))
				if err != nil {
					b.Fatal(err)
				}
				if !r.Complete {
					b.Fatal("gossip incomplete")
				}
				b.ReportMetric(float64(r.Metrics.Rounds), "rounds")
				b.ReportMetric(float64(r.Metrics.Messages), "msgs")
			}
		})
	}
}

// BenchmarkCheckpointing is experiment E7 (Theorem 10), including the
// O(tn) baseline for the crossover.
func BenchmarkCheckpointing(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		t := n / 6
		b.Run(fmt.Sprintf("algo/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := RunCheckpointing(n, t, false,
					WithSeed(1), WithRandomCrashes(t, 60))
				if err != nil {
					b.Fatal(err)
				}
				if !r.Agreement {
					b.Fatal("disagreement")
				}
				b.ReportMetric(float64(r.Metrics.Rounds), "rounds")
				b.ReportMetric(float64(r.Metrics.Messages), "msgs")
			}
		})
		b.Run(fmt.Sprintf("baseline/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := RunCheckpointing(n, t, true,
					WithSeed(1), WithRandomCrashes(t, 60))
				if err != nil {
					b.Fatal(err)
				}
				if !r.Agreement {
					b.Fatal("baseline disagreement")
				}
				b.ReportMetric(float64(r.Metrics.Rounds), "rounds")
				b.ReportMetric(float64(r.Metrics.Messages), "msgs")
			}
		})
	}
}

// BenchmarkABConsensus is experiment E8 (Theorem 11) across Byzantine
// strategies at t = √n/2.
func BenchmarkABConsensus(b *testing.B) {
	for _, n := range []int{100, 400, 900} {
		t := int(math.Sqrt(float64(n)) / 2)
		if t < 1 {
			t = 1
		}
		corrupted := make([]int, t)
		for i := range corrupted {
			corrupted[i] = i
		}
		for _, strat := range []struct {
			name string
			s    ByzantineStrategy
		}{{"silence", Silence}, {"equivocate", Equivocate}, {"spam", Spam}} {
			b.Run(fmt.Sprintf("%s/n=%d", strat.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r, err := RunByzantineConsensus(n, t, benchRumors(n), false,
						WithSeed(1), WithByzantine(strat.s, corrupted...))
					if err != nil {
						b.Fatal(err)
					}
					if !r.Agreement {
						b.Fatal("byzantine disagreement")
					}
					b.ReportMetric(float64(r.Metrics.Rounds), "rounds")
					b.ReportMetric(float64(r.Metrics.Messages), "msgs")
				}
			})
		}
	}
}

// BenchmarkSinglePortConsensus is experiment E9 (Theorem 12).
func BenchmarkSinglePortConsensus(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			t := n / 6
			for i := 0; i < b.N; i++ {
				r, err := RunConsensus(n, t, benchInputs(n),
					WithSeed(1), WithAlgorithm(SinglePortLinear), WithRandomCrashes(t, 3*t))
				if err != nil {
					b.Fatal(err)
				}
				reportConsensus(b, r)
			}
		})
	}
}

// BenchmarkLowerBoundDivergence is experiment E10 (Theorem 13).
func BenchmarkLowerBoundDivergence(b *testing.B) {
	for _, n := range []int{81, 243, 729} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				series, err := lowerbound.DivergenceSeries(n, 24)
				if err != nil {
					b.Fatal(err)
				}
				if lowerbound.CheckDivergenceInvariant(series) >= 0 {
					b.Fatal("3^i invariant violated")
				}
				full := lowerbound.RoundsToFullDivergence(series, n)
				if full < 0 {
					b.Fatal("no full divergence")
				}
				b.ReportMetric(float64(full), "rounds-to-diverge")
			}
		})
	}
}

// BenchmarkBaselineCrossover is experiment E11: bits of Few-Crashes vs
// flooding as n grows at fixed t/n.
func BenchmarkBaselineCrossover(b *testing.B) {
	for _, n := range []int{128, 256, 512, 1024} {
		t := n / 6
		b.Run(fmt.Sprintf("few-crashes/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := RunConsensus(n, t, benchInputs(n), WithSeed(1))
				if err != nil {
					b.Fatal(err)
				}
				reportConsensus(b, r)
			}
		})
		b.Run(fmt.Sprintf("flooding/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := RunConsensus(n, t, benchInputs(n),
					WithSeed(1), WithAlgorithm(FloodingBaseline))
				if err != nil {
					b.Fatal(err)
				}
				reportConsensus(b, r)
			}
		})
	}
}
