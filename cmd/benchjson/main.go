// Command benchjson runs the simulator engine benchmarks and emits
// BENCH_sim.json, the machine-readable engine micro-benchmark report
// committed at the repository root. It measures ns/round and
// allocs/round for the sequential engine at fixed (n, fanout) points,
// the amortized steady-state cost of repeated runs on one pooled arena
// (the engine/reuse family), the multi-seed batch paths against their
// scalar baselines, and probes the largest feasible n under a
// per-round time budget. The file records the GOMAXPROCS and CPU count
// the run saw, since the batch paths fan their sliced groups out
// across GOMAXPROCS.
//
// Usage:
//
//	go run ./cmd/benchjson            # write BENCH_sim.json
//	go run ./cmd/benchjson -o out.json -quick
//	go run ./cmd/benchjson -maxprocs 8
//	go run ./cmd/benchjson -only sliced -floor 8   # CI perf-floor smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"lineartime/internal/scenario"
	"lineartime/internal/sim"
)

// broadcaster mirrors the benchmark protocol of the engine's
// engine_bench_test.go: every node sends fanout one-bit messages per
// round and halts after the horizon, with a persistent pre-sized
// outbox so the measurement is of the engine, not the harness.
type broadcaster struct {
	id, n, fanout, horizon int
	rounds                 int
	out                    []sim.Envelope
}

func (b *broadcaster) Send(round int) []sim.Envelope {
	out := b.out[:0]
	for k := 1; k <= b.fanout; k++ {
		out = append(out, sim.Envelope{From: b.id, To: (b.id + k) % b.n, Payload: sim.Bit(true)})
	}
	b.out = out
	return out
}

func (b *broadcaster) Deliver(round int, _ []sim.Envelope) { b.rounds++ }
func (b *broadcaster) Halted() bool                        { return b.rounds >= b.horizon }

func buildSystem(n, fanout, horizon int) (sim.Config, []*broadcaster) {
	ps := make([]sim.Protocol, n)
	bs := make([]*broadcaster, n)
	for j := 0; j < n; j++ {
		bs[j] = &broadcaster{id: j, n: n, fanout: fanout, horizon: horizon,
			out: make([]sim.Envelope, 0, fanout)}
		ps[j] = bs[j]
	}
	return sim.Config{Protocols: ps, MaxRounds: horizon + 2}, bs
}

// benchPoint is one measured engine configuration.
type benchPoint struct {
	Name         string  `json:"name"`
	Engine       string  `json:"engine"` // "sequential" | "reuse" | "scalar-per-seed" | "sliced" | "scalar-per-seed-gossip" | "sliced-gossip" | "scalar-per-seed-gossip-links" | "sliced-gossip-links"
	N            int     `json:"n"`
	Fanout       int     `json:"fanout"`
	Rounds       int     `json:"rounds"`
	NsPerOp      float64 `json:"ns_per_op"`
	NsPerRound   float64 `json:"ns_per_round"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	MsgsPerRound int64   `json:"msgs_per_round"`
	// SeedsPerOp is set on the multi-seed rows (the scalar-per-seed /
	// sliced family): the number of independent seeds one op evaluates.
	// On those rows ns_per_round and msgs_per_round are per seed.
	SeedsPerOp int `json:"seeds_per_op,omitempty"`
	// SimsPerSec is the multi-seed rows' throughput: seeds_per_op
	// simulations divided by the op's wall time.
	SimsPerSec float64 `json:"sims_per_sec,omitempty"`
	// SpeedupVsScalarPerSeed is set on sliced rows: the matching
	// scalar-per-seed row's sims_per_sec divided into this row's — the
	// honest bit-slicing gain at the same shape and seed count.
	SpeedupVsScalarPerSeed float64 `json:"speedup_vs_scalar_per_seed,omitempty"`

	// Go, GOMAXPROCS and NumCPU repeat the report's machine fields on
	// the row, so a row re-measured on another box than the rest of
	// the committed file carries its own context.
	Go         string `json:"go,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	NumCPU     int    `json:"num_cpu,omitempty"`

	floorCap float64 // the point table's re-based -floor gate, not reported
}

// slicedSpec is the multi-seed benchmark workload: the flooding
// comparator under per-seed random crashes, so the 64 lanes genuinely
// diverge (different crash sets, rounds and message counts) instead of
// measuring a degenerate all-lanes-identical batch.
func slicedSpec(n, t int) scenario.Spec {
	sp := scenario.MustLookup("consensus/flooding").Spec(n, t, 1)
	sp.Fault = scenario.FaultModel{Kind: scenario.RandomCrashes, Count: t, Horizon: t + 2}
	return sp
}

// measureSliced measures the multi-seed batch path at one shape:
// "scalar-per-seed" runs the seeds as sequential scenario.Run calls
// (one op = seeds full scalar simulations, the pre-slicing cost of a
// multi-seed sweep point); "sliced" evaluates the same seeds as one
// scenario.RunSeeds batch riding the bit-sliced engine.
func measureSliced(engine string, n, t, seeds int) (benchPoint, error) {
	sp := slicedSpec(n, t)
	series := make([]uint64, seeds)
	for i := range series {
		series[i] = uint64(i + 1)
	}
	var runErr error
	var body func(b *testing.B)
	switch engine {
	case "scalar-per-seed":
		body = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, seed := range series {
					one := sp
					one.Seed = seed
					if _, err := scenario.Run(one); err != nil {
						runErr = err
						b.FailNow()
					}
				}
			}
		}
	case "sliced":
		body = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, errs := scenario.RunSeeds(sp, series)
				for _, err := range errs {
					if err != nil {
						runErr = err
						b.FailNow()
					}
				}
			}
		}
	default:
		return benchPoint{}, fmt.Errorf("unknown engine %q", engine)
	}
	// One reference run supplies the row's round and message
	// bookkeeping (seed 1; per-seed numbers vary with the crash draw).
	ref, err := scenario.Run(sp)
	if err != nil {
		return benchPoint{}, err
	}
	res := testing.Benchmark(body)
	if runErr != nil {
		return benchPoint{}, runErr
	}
	nsPerOp := float64(res.NsPerOp())
	return benchPoint{
		Name:         fmt.Sprintf("engine/%s/n=%d/seeds=%d", engine, n, seeds),
		Engine:       engine,
		N:            n,
		Rounds:       ref.Metrics.Rounds,
		NsPerOp:      nsPerOp,
		NsPerRound:   nsPerOp / float64(seeds) / float64(ref.Metrics.Rounds),
		AllocsPerOp:  res.AllocsPerOp(),
		BytesPerOp:   res.AllocedBytesPerOp(),
		MsgsPerRound: ref.Metrics.Messages / int64(ref.Metrics.Rounds),
		SeedsPerOp:   seeds,
		SimsPerSec:   float64(seeds) * 1e9 / nsPerOp,
	}, nil
}

// gossipSpecs builds the sliced-gossip benchmark workload: one
// gossip/expander shape shared by every lane — same topology seed, so
// the whole batch forms one sliced group — with per-lane random-crash
// adversaries, so the lanes genuinely diverge in crash sets, rounds
// and traffic instead of measuring a degenerate identical batch. With
// links set the lanes cycle the three link-fault families instead —
// omission at 1–5 %, delay up to 1 or 2 rounds, a partition window —
// the faulted sliced path: lane kernels, the delay ring and its sender
// sort, merges of re-sent snapshots.
func gossipSpecs(n, t, seeds int, links bool) []scenario.Spec {
	base := scenario.MustLookup("gossip/expander").Spec(n, t, 1)
	sps := make([]scenario.Spec, seeds)
	for i := range sps {
		sps[i] = base
		f := scenario.FaultModel{Kind: scenario.RandomCrashes, Count: t, Horizon: t + 2}
		if links {
			switch i % 3 {
			case 0:
				f = scenario.FaultModel{Kind: scenario.OmissionFaults, Rate: 0.01 * float64(1+i%5)}
			case 1:
				f = scenario.FaultModel{Kind: scenario.DelayedLinks, Delay: 1 + i/3%2}
			default:
				f = scenario.FaultModel{Kind: scenario.PartitionWindow, WindowStart: 1 + i%4, WindowEnd: 2 + i%4 + i/3%4}
			}
		}
		f.Seed = uint64(1001 + i)
		sps[i].Fault = f
	}
	return sps
}

// measureSlicedGossip measures the fault-swept gossip batch path at one
// shape: "scalar-per-seed-gossip" runs the lanes as sequential
// scenario.Run calls (one op = seeds full scalar gossip simulations);
// "sliced-gossip" evaluates the same specs as one
// scenario.ExecuteBatch call riding the bit-sliced gossip machine. A
// "-links" suffix on either swaps the crash lanes for link-fault lanes.
func measureSlicedGossip(engine string, n, t, seeds int) (benchPoint, error) {
	flavour, links := strings.CutSuffix(engine, "-links")
	sps := gossipSpecs(n, t, seeds, links)
	var runErr error
	var body func(b *testing.B)
	switch flavour {
	case "scalar-per-seed-gossip":
		body = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, sp := range sps {
					if _, err := scenario.Run(sp); err != nil {
						runErr = err
						b.FailNow()
					}
				}
			}
		}
	case "sliced-gossip":
		body = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, errs := scenario.ExecuteBatch(sps)
				for _, err := range errs {
					if err != nil {
						runErr = err
						b.FailNow()
					}
				}
			}
		}
	default:
		return benchPoint{}, fmt.Errorf("unknown engine %q", engine)
	}
	// One reference run supplies the row's round and message
	// bookkeeping (lane 0; per-lane numbers vary with the crash draw).
	ref, err := scenario.Run(sps[0])
	if err != nil {
		return benchPoint{}, err
	}
	res := testing.Benchmark(body)
	if runErr != nil {
		return benchPoint{}, runErr
	}
	nsPerOp := float64(res.NsPerOp())
	return benchPoint{
		Name:         fmt.Sprintf("engine/%s/n=%d/seeds=%d", engine, n, seeds),
		Engine:       engine,
		N:            n,
		Rounds:       ref.Metrics.Rounds,
		NsPerOp:      nsPerOp,
		NsPerRound:   nsPerOp / float64(seeds) / float64(ref.Metrics.Rounds),
		AllocsPerOp:  res.AllocsPerOp(),
		BytesPerOp:   res.AllocedBytesPerOp(),
		MsgsPerRound: ref.Metrics.Messages / int64(ref.Metrics.Rounds),
		SeedsPerOp:   seeds,
		SimsPerSec:   float64(seeds) * 1e9 / nsPerOp,
	}, nil
}

func measure(engine string, n, fanout, horizon int) (benchPoint, error) {
	cfg, bs := buildSystem(n, fanout, horizon)
	reset := func() {
		for _, bc := range bs {
			bc.rounds = 0
		}
	}
	var runErr error
	var body func(b *testing.B)
	switch engine {
	case "sequential":
		// The public path: scenario.Execute on a pooled arena, result
		// detached per run.
		body = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reset()
				if _, err := scenario.Execute(cfg); err != nil {
					runErr = err
					b.FailNow()
				}
			}
		}
	case "reuse":
		// The arena path: b.N consecutive runs on one Runtime, so the
		// per-op numbers are the amortized steady-state cost of a
		// repeated run (allocs/op ~0 once the buffers have grown).
		rt := sim.NewRuntime()
		body = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reset()
				if _, err := rt.Run(cfg); err != nil {
					runErr = err
					b.FailNow()
				}
			}
		}
	default:
		return benchPoint{}, fmt.Errorf("unknown engine %q", engine)
	}
	res := testing.Benchmark(body)
	if runErr != nil {
		return benchPoint{}, runErr
	}
	nsPerOp := float64(res.NsPerOp())
	return benchPoint{
		Name:         fmt.Sprintf("engine/%s/n=%d/fanout=%d", engine, n, fanout),
		Engine:       engine,
		N:            n,
		Fanout:       fanout,
		Rounds:       horizon,
		NsPerOp:      nsPerOp,
		NsPerRound:   nsPerOp / float64(horizon),
		AllocsPerOp:  res.AllocsPerOp(),
		BytesPerOp:   res.AllocedBytesPerOp(),
		MsgsPerRound: int64(n) * int64(fanout),
	}, nil
}

// fillSpeedups sets speedup_vs_scalar_per_seed on every sliced row
// that has a matching same-shape scalar-per-seed row.
func fillSpeedups(points []benchPoint) {
	for i := range points {
		p := &points[i]
		if !strings.HasPrefix(p.Engine, "sliced") {
			continue
		}
		scalar := "scalar-per-seed" + strings.TrimPrefix(p.Engine, "sliced")
		for j := range points {
			q := &points[j]
			if q.Engine == scalar && q.N == p.N && q.SeedsPerOp == p.SeedsPerOp && q.SimsPerSec > 0 {
				p.SpeedupVsScalarPerSeed = p.SimsPerSec / q.SimsPerSec
			}
		}
	}
}

// maxFeasibleN doubles n until one round of the sequential engine at
// the given fanout exceeds the time budget (or the memory-bounding cap
// is reached) and reports the last n that fit.
func maxFeasibleN(fanout int, budget time.Duration, capN int) (int, float64) {
	const horizon = 5
	best, bestNs := 0, 0.0
	for n := 1024; n <= capN; n *= 2 {
		cfg, _ := buildSystem(n, fanout, horizon)
		start := time.Now()
		if _, err := scenario.Execute(cfg); err != nil {
			break
		}
		perRound := time.Since(start) / horizon
		if perRound > budget {
			break
		}
		best, bestNs = n, float64(perRound.Nanoseconds())
	}
	return best, bestNs
}

// report is the BENCH_sim.json schema.
type report struct {
	Schema string `json:"schema"`
	Go     string `json:"go"`
	// GOMAXPROCS and NumCPU are the real values of the measuring run
	// (after any -maxprocs override); the sliced rows fan out across
	// GOMAXPROCS, so their speedups mean nothing without them.
	GOMAXPROCS  int          `json:"gomaxprocs"`
	NumCPU      int          `json:"num_cpu"`
	Benchmarks  []benchPoint `json:"benchmarks"`
	MaxFeasible struct {
		Fanout           int     `json:"fanout"`
		BudgetMsPerRound float64 `json:"budget_ms_per_round"`
		N                int     `json:"n"`
		NsPerRound       float64 `json:"ns_per_round"`
	} `json:"max_feasible_n"`
	// Baseline freezes the pre-refactor engine's headline numbers
	// (BenchmarkEngine, n=1000, fanout 8, 20 rounds, allocation-clean
	// harness) so the trajectory keeps its origin.
	Baseline struct {
		Name        string  `json:"name"`
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
		BytesPerOp  int64   `json:"bytes_per_op"`
		Note        string  `json:"note"`
	} `json:"baseline_pre_refactor"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("o", "BENCH_sim.json", "output path ('-' for stdout)")
	quick := fs.Bool("quick", false, "tiny sizes (CI smoke)")
	budgetMs := fs.Int("budget", 100, "max-feasible-n time budget, ms per round")
	maxprocs := fs.Int("maxprocs", 0, "override GOMAXPROCS for the measuring run (0 = leave as is)")
	floor := fs.Float64("floor", 0, "fail unless every sliced row's speedup_vs_scalar_per_seed reaches this factor, or the row's own re-based floor where the point table sets a lower one (0 = no check)")
	only := fs.String("only", "", `restrict the measurement: "sliced" runs only the multi-seed scalar/sliced families (the CI perf-floor smoke)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q; %s takes flags only", fs.Arg(0), fs.Name())
	}
	if *only != "" && *only != "sliced" {
		return fmt.Errorf("unknown -only value %q (have: sliced)", *only)
	}
	if *maxprocs > 0 {
		runtime.GOMAXPROCS(*maxprocs)
	}

	type point struct {
		engine            string
		n, fanout, rounds int
	}
	points := []point{
		{"sequential", 256, 8, 20},
		{"sequential", 1000, 8, 20}, // the headline BenchmarkEngine shape
		{"sequential", 4096, 8, 20},
		{"sequential", 256, 64, 20},
		{"sequential", 16384, 8, 20},
		{"sequential", 4096, 64, 20},
		{"reuse", 1000, 8, 20},
		{"reuse", 4096, 8, 20},
	}
	capN := 1 << 17
	if *quick {
		points = []point{
			{"sequential", 64, 4, 5},
			{"reuse", 64, 4, 5},
		}
		capN = 2048
	}
	if *only == "sliced" {
		points = nil
	}

	var rep report
	rep.Schema = "lineartime/bench_sim/v6"
	rep.Go = runtime.Version()
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.NumCPU = runtime.NumCPU()
	for _, p := range points {
		bp, err := measure(p.engine, p.n, p.fanout, p.rounds)
		if err != nil {
			return fmt.Errorf("%s n=%d: %w", p.engine, p.n, err)
		}
		rep.Benchmarks = append(rep.Benchmarks, bp)
	}
	type slicedPt struct {
		engine         string
		n, t, seedsPer int
		// floorCap re-bases the -floor gate for one row: the row is
		// asked for min(-floor, floorCap); 0 leaves the flag's value.
		floorCap float64
	}
	slicedPoints := []slicedPt{
		// The headline multi-seed shape: 64 seeds at n=1000 — the
		// acceptance comparison of the bit-sliced engine.
		{"scalar-per-seed", 1000, 16, 64, 0},
		{"sliced", 1000, 16, 64, 0},
	}
	if *quick {
		slicedPoints = []slicedPt{
			{"scalar-per-seed", 64, 8, 16, 0},
			{"sliced", 64, 8, 16, 0},
		}
	}
	for _, p := range slicedPoints {
		bp, err := measureSliced(p.engine, p.n, p.t, p.seedsPer)
		if err != nil {
			return fmt.Errorf("%s n=%d: %w", p.engine, p.n, err)
		}
		bp.floorCap = p.floorCap
		rep.Benchmarks = append(rep.Benchmarks, bp)
	}
	gossipPoints := []slicedPt{
		// The fault-swept gossip headline: one expander topology, a
		// word of crash adversaries per batch.
		{"scalar-per-seed-gossip", 1000, 16, 64, 0},
		{"sliced-gossip", 1000, 16, 64, 0},
		// The same shape under link faults: the path the crash rows
		// never enter.
		{"scalar-per-seed-gossip-links", 1000, 16, 64, 0},
		{"sliced-gossip-links", 1000, 16, 64, 0},
	}
	if *quick {
		// The CI gate on the gossip rows is re-based, not 8: they
		// divide by the scalar gossip stack, whose merges are
		// word-parallel too, so lane-slicing buys less here than over
		// the flooding comparator — and less again each time the scalar
		// stack gets faster while the sliced rows stand still. Each
		// floor is 0.8 × the lowest of at least three quick
		// measurements. The link-fault floor was taken when the scalar
		// stack stopped packing messages into wire words and cloning
		// snapshot rumors: the scalar link-fault row went from
		// 39.3–42.6 ms to 30.4–36.1 ms and its sliced row read
		// 3.71–5.27× (4.69–4.90× before). The crash-lane floor was
		// re-based when the scalar engine began repeating steady probing
		// rounds instead of executing them, which link-fault runs never
		// do: over four alternating quick runs the scalar crash-lane row
		// went from 20.0–31.5 ms to 8.5–13.2 ms and its sliced row read
		// 2.19–2.74× (5.98–7.61× before). The sliced rows themselves did
		// not move (crash lanes 3.2–4.4 ms before, 3.9–4.8 ms after). It
		// was re-based again, 1.75 → 1.48, when the scalar engine began
		// carrying steady spans across the quiet rounds between probing
		// instances and through each instance's last round: over four
		// alternating quick runs the scalar crash-lane row went from
		// 10.0–13.0 ms to 7.5–8.3 ms and its sliced row read 1.85–1.95×
		// (2.72–2.98× before), while the sliced row stood at 3.5–4.5 ms
		// before and 3.9–4.3 ms after.
		gossipPoints = []slicedPt{
			{"scalar-per-seed-gossip", 64, 8, 16, 0},
			{"sliced-gossip", 64, 8, 16, 1.48},
			{"scalar-per-seed-gossip-links", 64, 8, 16, 0},
			{"sliced-gossip-links", 64, 8, 16, 3.0},
		}
	}
	for _, p := range gossipPoints {
		bp, err := measureSlicedGossip(p.engine, p.n, p.t, p.seedsPer)
		if err != nil {
			return fmt.Errorf("%s n=%d: %w", p.engine, p.n, err)
		}
		bp.floorCap = p.floorCap
		rep.Benchmarks = append(rep.Benchmarks, bp)
	}
	fillSpeedups(rep.Benchmarks)
	for i := range rep.Benchmarks {
		p := &rep.Benchmarks[i]
		p.Go, p.GOMAXPROCS, p.NumCPU = rep.Go, rep.GOMAXPROCS, rep.NumCPU
	}
	if *floor > 0 {
		checked := 0
		for _, p := range rep.Benchmarks {
			if p.SpeedupVsScalarPerSeed == 0 {
				continue
			}
			checked++
			want := *floor
			if p.floorCap > 0 && p.floorCap < want {
				want = p.floorCap
			}
			if p.SpeedupVsScalarPerSeed < want {
				return fmt.Errorf("%s: speedup_vs_scalar_per_seed %.2f below floor %.2f", p.Name, p.SpeedupVsScalarPerSeed, want)
			}
		}
		if checked == 0 {
			return fmt.Errorf("-floor %.2f: no sliced rows to check", *floor)
		}
	}
	if *only == "" {
		rep.MaxFeasible.Fanout = 8
		rep.MaxFeasible.BudgetMsPerRound = float64(*budgetMs)
		rep.MaxFeasible.N, rep.MaxFeasible.NsPerRound =
			maxFeasibleN(8, time.Duration(*budgetMs)*time.Millisecond, capN)
	}
	rep.Baseline.Name = "engine/sequential/n=1000/fanout=8"
	rep.Baseline.NsPerOp = 10534134
	rep.Baseline.AllocsPerOp = 140036
	rep.Baseline.BytesPerOp = 12181963
	rep.Baseline.Note = "pre-refactor engine (per-round inbox allocation, sort.Slice ordering); median of 3 at -benchtime 2s"

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}
