// Package experiments declares the paper's experiment tables — the
// E2–E13 sweep series and the empirical Table 1 (T1) — as data over the
// scenario registry: each experiment is a set of sections, each section
// a markdown table whose points materialize registry scenarios through
// the generic runner. cmd/sweep is a thin loop over these definitions,
// so adding (or resizing) an experiment is an edit here, not in the
// command. Whether a run held is scenario.Check's call, never a
// point's.
package experiments

import (
	"errors"
	"fmt"
	"math"

	"lineartime/internal/lowerbound"
	"lineartime/internal/scenario"
	"lineartime/internal/sim"
)

// Point is one sweep point: an independent unit of work producing one
// formatted table row. Points of a section may run concurrently; every
// point dispatches through scenario.Execute, so consecutive points on
// one sweep worker reuse a pooled run arena (sim.Runtime) instead of
// rebuilding engine state per run.
type Point struct {
	Run func() (string, error)
	// RunN, when set, renders the point aggregated over the given
	// number of seeds (seeds 1..N) instead of the single committed
	// seed — the multi-seed sweep path (cmd/sweep -seeds). Points
	// whose multi-seed batch contains a sliceable scenario ride the
	// bit-sliced engine 64 seeds per machine word via
	// scenario.RunSeeds. Nil means the point is single-seed only and
	// -seeds falls back to Run.
	RunN func(seeds int) (string, error)
}

// seedRange returns the multi-seed sweep's seed series 1..n.
func seedRange(n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(i + 1)
	}
	return s
}

// runSeedsMean runs the spec across the seed series and returns the
// reports, failing on the first per-seed error.
func runSeedsMean(sp scenario.Spec, seeds []uint64) ([]*scenario.Report, error) {
	reports, errs := scenario.RunSeeds(sp, seeds)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seeds[i], err)
		}
	}
	return reports, nil
}

// held returns the first guarantee scenario.Check finds the run of sp
// broke, as an error, or nil.
func held(sp scenario.Spec, rep *scenario.Report) error {
	if vs := scenario.Check(sp, rep); len(vs) > 0 {
		return fmt.Errorf("%s n=%d seed=%d: %s violated: %s", sp.Name, sp.N, sp.Seed, vs[0].Guarantee, vs[0].Detail)
	}
	return nil
}

// meanMetric averages one metric over a seed batch.
func meanMetric(reports []*scenario.Report, metric func(*scenario.Report) float64) float64 {
	var sum float64
	for _, rep := range reports {
		sum += metric(rep)
	}
	return sum / float64(len(reports))
}

// Section is one markdown table of an experiment, with an optional
// preamble line above it and claim footer below it.
type Section struct {
	Preamble    string
	Header, Sep string
	Footer      string
	Points      []Point
}

// Experiment is one experiment id of EXPERIMENTS.md.
type Experiment struct {
	ID    string
	Title string
	// Sections materializes the experiment's tables; quick selects the
	// CI-friendly sizes.
	Sections func(quick bool) []Section
}

// All returns the experiments in EXPERIMENTS.md order.
func All() []Experiment {
	return []Experiment{e2(), e3(), e4(), e5(), e6(), e7(), e8(), e9(), e10(), e11(), e12(), e13(), t1()}
}

// sizes returns all sizes, or the first two in quick mode.
func sizes(quick bool, all ...int) []int {
	if quick && len(all) > 2 {
		return all[:2]
	}
	return all
}

func e2() Experiment {
	return Experiment{
		ID:    "E2",
		Title: "Theorem 5 — Almost-Everywhere Agreement",
		Sections: func(quick bool) []Section {
			ns := sizes(quick, 250, 500, 1000, 2000)
			pts := make([]Point, len(ns))
			for i, n := range ns {
				t := n / 6
				pts[i] = Point{Run: func() (string, error) {
					sp := scenario.MustLookup("aea/expander").Spec(n, t, 1)
					// The committed series targets the little overlay
					// with the historical adversary seed 3 and the
					// original 4-round slack.
					sp.Fault = scenario.FaultModel{Kind: scenario.TargetLittleCrashes, Count: t, Seed: 3}
					sp.RoundSlack = 4
					rep, err := scenario.Run(sp)
					if err != nil {
						return "", err
					}
					d := rep.Subroutine.Deciders
					return fmt.Sprintf("| %d | %d | %d | %.2f | %d | %d | %.1f |",
						n, t, d, float64(d)/float64(n),
						rep.Metrics.Rounds, rep.Metrics.Messages,
						float64(rep.Metrics.Messages)/float64(n)), nil
				}}
			}
			return []Section{{
				Header: "| n | t | deciders | deciders/n | rounds | messages | msgs/n |",
				Sep:    "|---|---|----------|-----------|--------|----------|--------|",
				Footer: "Claim: ≥ 3n/5 deciders, O(t) rounds, O(n) messages under little-node-targeted crashes.",
				Points: pts,
			}}
		},
	}
}

func e3() Experiment {
	return Experiment{
		ID:    "E3",
		Title: "Theorem 6 — Spread-Common-Value",
		Sections: func(quick bool) []Section {
			type cfg struct{ n, t int }
			cases := []cfg{{400, 10}, {400, 80}, {1600, 30}, {1600, 320}}
			if quick {
				cases = cases[:2]
			}
			pts := make([]Point, len(cases))
			for i, c := range cases {
				pts[i] = Point{Run: func() (string, error) {
					branch := "t²≤n"
					if c.t*c.t > c.n {
						branch = "t²>n"
					}
					sp := scenario.MustLookup("scv/expander").Spec(c.n, c.t, 2)
					sp.RoundSlack = 4
					rep, err := scenario.Run(sp)
					if err != nil {
						return "", err
					}
					return fmt.Sprintf("| %d | %d | %s | %d | %d | %v |",
						c.n, c.t, branch, rep.Metrics.Rounds, rep.Metrics.Messages,
						rep.Subroutine.AllDecided), nil
				}}
			}
			return []Section{{
				Header: "| n | t | branch | rounds | messages | all decided |",
				Sep:    "|---|---|--------|--------|----------|-------------|",
				Footer: "Claim: O(log t) rounds, O(t log t) messages, every node decides.",
				Points: pts,
			}}
		},
	}
}

func e4() Experiment {
	return Experiment{
		ID:    "E4",
		Title: "Theorem 7 — Few-Crashes-Consensus",
		Sections: func(quick bool) []Section {
			ns := sizes(quick, 128, 256, 512, 1024, 2048)
			pts := make([]Point, len(ns))
			for i, n := range ns {
				t := n / 6
				pts[i] = Point{Run: func() (string, error) {
					sp := scenario.MustLookup("consensus/few-crashes").Spec(n, t, 1)
					sp.Fault = scenario.FaultModel{Kind: scenario.RandomCrashes, Count: t, Horizon: 5 * t}
					rep, err := scenario.Run(sp)
					if err != nil {
						return "", err
					}
					if err := held(sp, rep); err != nil {
						return "", err
					}
					return fmt.Sprintf("| %d | %d | %d | %.2f | %d | %.1f |",
						n, t, rep.Metrics.Rounds, float64(rep.Metrics.Rounds)/float64(t),
						rep.Metrics.Bits, float64(rep.Metrics.Bits)/float64(n)), nil
				}}
				pts[i].RunN = func(seeds int) (string, error) {
					sp := scenario.MustLookup("consensus/few-crashes").Spec(n, t, 1)
					sp.Fault = scenario.FaultModel{Kind: scenario.RandomCrashes, Count: t, Horizon: 5 * t}
					series := seedRange(seeds)
					reports, err := runSeedsMean(sp, series)
					if err != nil {
						return "", err
					}
					for s, rep := range reports {
						sp.Seed = series[s]
						if err := held(sp, rep); err != nil {
							return "", err
						}
					}
					rounds := meanMetric(reports, func(r *scenario.Report) float64 { return float64(r.Metrics.Rounds) })
					bits := meanMetric(reports, func(r *scenario.Report) float64 { return float64(r.Metrics.Bits) })
					return fmt.Sprintf("| %d | %d | %.1f | %.2f | %.1f | %.1f |",
						n, t, rounds, rounds/float64(t), bits, bits/float64(n)), nil
				}
			}
			return []Section{{
				Header: "| n | t | rounds | rounds/t | bits | bits/n |",
				Sep:    "|---|---|--------|----------|------|--------|",
				Footer: "Claim: O(t + log n) rounds (rounds/t flat) and O(n + t log t) bits.",
				Points: pts,
			}}
		},
	}
}

func e5() Experiment {
	return Experiment{
		ID:    "E5",
		Title: "Theorem 8 / Corollary 1 — Many-Crashes-Consensus",
		Sections: func(quick bool) []Section {
			n := 256
			if quick {
				n = 128
			}
			lg := int(math.Ceil(math.Log2(float64(n))))
			ts := []int{n / 5, n / 2, 9 * n / 10, n - 1} // α = .2, .5, .9, Corollary 1
			pts := make([]Point, len(ts))
			for i, t := range ts {
				pts[i] = Point{Run: func() (string, error) {
					sp := scenario.MustLookup("consensus/many-crashes").Spec(n, t, 3)
					sp.Fault = scenario.FaultModel{Kind: scenario.RandomCrashes, Count: t, Horizon: n}
					rep, err := scenario.Run(sp)
					if err != nil {
						return "", err
					}
					if err := held(sp, rep); err != nil {
						return "", err
					}
					return fmt.Sprintf("| %d | %d | %.2f | %d | %d | %d |",
						n, t, float64(t)/float64(n), rep.Metrics.Rounds, n+3*(1+lg),
						rep.Metrics.Messages), nil
				}}
			}
			return []Section{{
				Header: "| n | t | α | rounds | n+3(1+lg n) | messages |",
				Sep:    "|---|---|---|--------|-------------|----------|",
				Footer: "Claim: ≤ n + 3(1+lg n) rounds for any t < n (Corollary 1 row: t = n−1).",
				Points: pts,
			}}
		},
	}
}

func e6() Experiment {
	return Experiment{
		ID:    "E6",
		Title: "Theorem 9 — Gossip",
		Sections: func(quick bool) []Section {
			ns := sizes(quick, 128, 256, 512, 1024, 2048)
			pts := make([]Point, len(ns))
			for i, n := range ns {
				t := n / 6
				pts[i] = Point{Run: func() (string, error) {
					sp := scenario.MustLookup("gossip/expander").Spec(n, t, 1)
					sp.Fault = scenario.FaultModel{Kind: scenario.RandomCrashes, Count: t, Horizon: 60}
					rep, err := scenario.Run(sp)
					if err != nil {
						return "", err
					}
					if err := held(sp, rep); err != nil {
						return "", err
					}
					lglg := math.Log2(float64(n)) * math.Log2(float64(t))
					return fmt.Sprintf("| %d | %d | %d | %.0f | %d | %.1f |",
						n, t, rep.Metrics.Rounds, lglg, rep.Metrics.Messages,
						float64(rep.Metrics.Messages)/float64(n)), nil
				}}
			}
			return []Section{{
				Header: "| n | t | rounds | lg n · lg t | messages | msgs/n |",
				Sep:    "|---|---|--------|--------------|----------|--------|",
				Footer: "Claim: O(log n · log t) rounds and O(n + t log n log t) messages.",
				Points: pts,
			}}
		},
	}
}

func e7() Experiment {
	return Experiment{
		ID:    "E7",
		Title: "Theorem 10 — Checkpointing vs O(tn) baseline",
		Sections: func(quick bool) []Section {
			ns := sizes(quick, 128, 256, 512, 1024)
			pts := make([]Point, len(ns))
			for i, n := range ns {
				t := n / 6
				pts[i] = Point{Run: func() (string, error) {
					fault := scenario.FaultModel{Kind: scenario.RandomCrashes, Count: t, Horizon: 60}
					algoSpec := scenario.MustLookup("checkpoint/expander").Spec(n, t, 1)
					algoSpec.Fault = fault
					algo, err := scenario.Run(algoSpec)
					if err != nil {
						return "", err
					}
					baseSpec := scenario.MustLookup("checkpoint/direct").Spec(n, t, 1)
					baseSpec.Fault = fault
					base, err := scenario.Run(baseSpec)
					if err != nil {
						return "", err
					}
					if err := errors.Join(held(algoSpec, algo), held(baseSpec, base)); err != nil {
						return "", err
					}
					return fmt.Sprintf("| %d | %d | %d | %d | %d | %d | %.2f |",
						n, t, algo.Metrics.Rounds, algo.Metrics.Messages,
						base.Metrics.Rounds, base.Metrics.Messages,
						float64(base.Metrics.Messages)/float64(algo.Metrics.Messages)), nil
				}}
			}
			return []Section{{
				Header: "| n | t | algo rounds | algo msgs | baseline rounds | baseline msgs | ratio |",
				Sep:    "|---|---|-------------|-----------|-----------------|---------------|-------|",
				Footer: "Claim: the §6 algorithm's messages beat the direct Θ(t·n²) exchange by a factor growing with n.",
				Points: pts,
			}}
		},
	}
}

func e8() Experiment {
	return Experiment{
		ID:    "E8",
		Title: "Theorem 11 — AB-Consensus (authenticated Byzantine)",
		Sections: func(quick bool) []Section {
			strategies := []scenario.ByzantineStrategy{scenario.Silence, scenario.Equivocate, scenario.Spam}
			type point struct {
				n int
				s scenario.ByzantineStrategy
			}
			var points []point
			for _, n := range sizes(quick, 100, 400, 900, 1600) {
				for _, s := range strategies {
					points = append(points, point{n: n, s: s})
				}
			}
			pts := make([]Point, len(points))
			for i, p := range points {
				pts[i] = Point{Run: func() (string, error) {
					t := sqrtHalf(p.n)
					sp := scenario.MustLookup("byzantine/ab-consensus").Spec(p.n, t, 1)
					sp.Fault = byzantineFault(p.s, t)
					rep, err := scenario.Run(sp)
					if err != nil {
						return "", err
					}
					_, violated := scenario.Verdict(sp, rep)
					return fmt.Sprintf("| %d | %d | %s | %d | %d | %d | %v |",
						p.n, t, p.s, rep.Metrics.Rounds, rep.Metrics.Messages,
						t*t+p.n, !violated), nil
				}}
			}
			return []Section{{
				Header: "| n | t=√n/2 | strategy | rounds | messages | t²+n | agreement |",
				Sep:    "|---|--------|----------|--------|----------|------|-----------|",
				Footer: "Claim: O(t) rounds, O(t²+n) non-faulty messages, agreement under every strategy.",
				Points: pts,
			}}
		},
	}
}

func e9() Experiment {
	return Experiment{
		ID:    "E9",
		Title: "Theorem 12 — single-port Linear-Consensus",
		Sections: func(quick bool) []Section {
			ns := sizes(quick, 128, 256, 512, 1024)
			pts := make([]Point, len(ns))
			for i, n := range ns {
				t := n / 6
				pts[i] = Point{Run: func() (string, error) {
					sp := scenario.MustLookup("consensus/single-port").Spec(n, t, 1)
					sp.Fault = scenario.FaultModel{Kind: scenario.RandomCrashes, Count: t, Horizon: 3 * t}
					rep, err := scenario.Run(sp)
					if err != nil {
						return "", err
					}
					if err := held(sp, rep); err != nil {
						return "", err
					}
					denom := float64(t) + math.Log2(float64(n))
					return fmt.Sprintf("| %d | %d | %d | %.1f | %d | %.1f |",
						n, t, rep.Metrics.Rounds, float64(rep.Metrics.Rounds)/denom,
						rep.Metrics.Bits, float64(rep.Metrics.Bits)/float64(n)), nil
				}}
			}
			return []Section{{
				Header: "| n | t | rounds | rounds/(t+lg n) | bits | bits/n |",
				Sep:    "|---|---|--------|------------------|------|--------|",
				Footer: "Claim: Θ(t + log n) rounds (the ratio column is the compilation constant) and O(n + t log n) bits.",
				Points: pts,
			}}
		},
	}
}

func e10() Experiment {
	return Experiment{
		ID:    "E10",
		Title: "Theorem 13 — lower-bound constructions",
		Sections: func(quick bool) []Section {
			ns := sizes(quick, 81, 243, 729)
			divergence := make([]Point, len(ns))
			for i, n := range ns {
				divergence[i] = Point{Run: func() (string, error) {
					series, err := lowerbound.DivergenceSeries(n, 24)
					if err != nil {
						return "", err
					}
					head := series
					if len(head) > 12 {
						head = head[:12]
					}
					return fmt.Sprintf("| %d | %v | %v | %d | %.1f |",
						n, head, lowerbound.CheckDivergenceInvariant(series) >= 0,
						lowerbound.RoundsToFullDivergence(series, n),
						math.Log(float64(n))/math.Log(3)), nil
				}}
			}
			ts := sizes(quick, 8, 16, 32, 64)
			isolation := make([]Point, len(ts))
			for i, t := range ts {
				isolation[i] = Point{Run: func() (string, error) {
					first, err := lowerbound.FirstContactRound(128, t, 5, 400)
					if err != nil {
						return "", err
					}
					return fmt.Sprintf("| 128 | %d | %d | %d |", t, first, t/2), nil
				}}
			}
			return []Section{
				{
					Preamble: "Divergence (Ω(log n) argument): diverged-node counts per single-port round vs the 3^i bound",
					Header:   "| n | series (per round) | 3^i violated | full divergence at round | log₃(n) |",
					Sep:      "|---|--------------------|--------------|--------------------------|---------|",
					Points:   divergence,
				},
				{
					Preamble: "Isolation (Ω(t) argument): first round the victim hears anything, crash budget t",
					Header:   "| n | t | first contact round | t/2 bound |",
					Sep:      "|---|---|---------------------|-----------|",
					Footer:   "Claim: divergence ≤ 3^i per round (so Ω(log n) rounds) and isolation ≥ t/2 rounds (so Ω(t)).",
					Points:   isolation,
				},
			}
		},
	}
}

// faultLabel renders a fault-bound scenario's fault model for the E12
// table.
func faultLabel(f scenario.FaultModel) string {
	switch f.Kind {
	case scenario.OmissionFaults:
		return fmt.Sprintf("omission %g%%", f.Rate*100)
	case scenario.PartitionWindow:
		cut := "n/2"
		if f.Cut > 0 {
			cut = fmt.Sprintf("%d", f.Cut)
		}
		return fmt.Sprintf("partition [%d,%d) cut %s", f.WindowStart, f.WindowEnd, cut)
	case scenario.DelayedLinks:
		return fmt.Sprintf("delay ≤%d", f.Delay)
	default:
		return f.Kind.String()
	}
}

func e12() Experiment {
	section := func(quick bool, preamble string, names ...string) Section {
		ns := sizes(quick, 128, 256, 512)
		var pts []Point
		for _, name := range names {
			for _, n := range ns {
				pts = append(pts, Point{Run: func() (string, error) {
					t := n / 6
					d := scenario.MustLookup(name)
					sp := d.Spec(n, t, 1)
					rep, err := scenario.Run(sp)
					if err != nil {
						return "", err
					}
					// Degradation is a result here, not an error: the
					// paper's algorithms are designed for crashes.
					verdict, _ := scenario.Verdict(sp, rep)
					return fmt.Sprintf("| %s | %d | %d | %s | %d | %d | %s |",
						name, n, t, faultLabel(d.Fault),
						rep.Metrics.Rounds, rep.Metrics.Messages, verdict), nil
				}})
			}
		}
		return Section{
			Preamble: preamble,
			Header:   "| scenario | n | t | fault | rounds | messages | verdict |",
			Sep:      "|----------|---|---|-------|--------|----------|---------|",
			Points:   pts,
		}
	}
	return Experiment{
		ID:    "E12",
		Title: "Link-fault matrix — omission, partition and delay models",
		Sections: func(quick bool) []Section {
			omission := section(quick,
				"Omission (seeded per-link loss): senders pay for lost traffic; receivers see a lossy network",
				"consensus/few-crashes/omission", "gossip/expander/omission", "majority/expander/omission")
			partition := section(quick,
				"Partition (network split for rounds [a,b), then healed): cross-cut messages are lost inside the window",
				"consensus/flooding/partition", "checkpoint/expander/partition")
			delay := section(quick,
				"Delay (adversarial delivery up to d rounds late): the bounded-delay scheduler inside the synchronous round budget",
				"consensus/few-crashes/delay", "gossip/expander/delay")
			delay.Footer = "Observation: the crash-tolerant stacks are not delay- or partition-tolerant by design; the verdict column records which guarantees survive which link faults."
			return []Section{omission, partition, delay}
		},
	}
}

// e13 sweeps the chaos rows: the worst adversary schedules found by
// the internal/campaign frontier search (committed as
// testdata/frontier_*.json), promoted into the registry. Unlike the
// hand-picked E12 rows, these schedules are chosen because they break
// a guarantee, so a run that exhausts its round budget is itself a
// result — the hunted liveness failure — not an error.
func e13() Experiment {
	names := []string{"consensus/few-crashes/chaos", "gossip/expander/chaos"}
	return Experiment{
		ID:    "E13",
		Title: "Chaos campaigns — campaign-found worst schedules",
		Sections: func(quick bool) []Section {
			ns := sizes(quick, 96, 192, 384)
			var pts []Point
			for _, name := range names {
				for _, n := range ns {
					pts = append(pts, Point{Run: func() (string, error) {
						t := n / 6
						d := scenario.MustLookup(name)
						sp := d.Spec(n, t, 1)
						rep, err := scenario.Run(sp)
						if errors.Is(err, sim.ErrNoTermination) {
							return fmt.Sprintf("| %s | %d | %d | %s | - | - | no-termination (round budget exhausted) |",
								name, n, t, faultLabel(d.Fault)), nil
						}
						if err != nil {
							return "", err
						}
						verdict, _ := scenario.Verdict(sp, rep)
						return fmt.Sprintf("| %s | %d | %d | %s | %d | %d | %s |",
							name, n, t, faultLabel(d.Fault),
							rep.Metrics.Rounds, rep.Metrics.Messages, verdict), nil
					}})
				}
			}
			return []Section{{
				Preamble: "Worst schedules from the committed frontier campaigns (n=96, t=16, seed 1; see testdata/frontier_*.json), re-run across sizes",
				Header:   "| scenario | n | t | fault | rounds | messages | verdict |",
				Sep:      "|----------|---|---|-------|--------|----------|---------|",
				Footer:   "Observation: the campaign search finds delay schedules that break agreement/completeness where the E12 grid's hand-picked points do not; the gossip completeness break persists at every size, while the consensus agreement break is size-sensitive (present at n=96 and n=384, absent at n=192) — exactly why the searched point is pinned by the frontier artifacts.",
				Points:   pts,
			}}
		},
	}
}

func e11() Experiment {
	return Experiment{
		ID:    "E11",
		Title: "§1 comparison — message crossover vs flooding",
		Sections: func(quick bool) []Section {
			ns := sizes(quick, 64, 128, 256, 512, 1024)
			pts := make([]Point, len(ns))
			for i, n := range ns {
				t := n / 6
				pts[i] = Point{Run: func() (string, error) {
					run := func(name string) (*scenario.Report, error) {
						return scenario.Run(scenario.MustLookup(name).Spec(n, t, 1))
					}
					algo, err := run("consensus/few-crashes")
					if err != nil {
						return "", err
					}
					flood, err := run("consensus/flooding")
					if err != nil {
						return "", err
					}
					coord, err := run("consensus/rotating-coordinator")
					if err != nil {
						return "", err
					}
					return fmt.Sprintf("| %d | %d | %d | %d | %d | %.2f | %.2f |",
						n, t, algo.Metrics.Bits, flood.Metrics.Bits, coord.Metrics.Bits,
						float64(flood.Metrics.Bits)/float64(algo.Metrics.Bits),
						float64(coord.Metrics.Bits)/float64(algo.Metrics.Bits)), nil
				}}
				pts[i].RunN = func(seeds int) (string, error) {
					series := seedRange(seeds)
					runN := func(name string) (float64, error) {
						// The flooding comparator rides the bit-sliced
						// engine, 64 seeds per machine word; the other
						// stacks take RunSeeds' scalar fallback.
						reports, err := runSeedsMean(scenario.MustLookup(name).Spec(n, t, 1), series)
						if err != nil {
							return 0, err
						}
						return meanMetric(reports, func(r *scenario.Report) float64 { return float64(r.Metrics.Bits) }), nil
					}
					algo, err := runN("consensus/few-crashes")
					if err != nil {
						return "", err
					}
					flood, err := runN("consensus/flooding")
					if err != nil {
						return "", err
					}
					coord, err := runN("consensus/rotating-coordinator")
					if err != nil {
						return "", err
					}
					return fmt.Sprintf("| %d | %d | %.1f | %.1f | %.1f | %.2f | %.2f |",
						n, t, algo, flood, coord, flood/algo, coord/algo), nil
				}
			}
			return []Section{{
				Header: "| n | t | few-crashes bits | flooding bits | coordinator bits | flood/algo | coord/algo |",
				Sep:    "|---|---|------------------|---------------|------------------|------------|------------|",
				Footer: "Claim: the baselines' Θ(n²) and Θ(t·n) bits diverge from the algorithm's O(n + t log t); both ratios grow with n.",
				Points: pts,
			}}
		},
	}
}
