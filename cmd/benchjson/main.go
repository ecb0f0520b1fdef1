// Command benchjson runs the simulator engine benchmarks and emits
// BENCH_sim.json, the machine-readable performance trajectory committed
// at the repository root (the CHC-COMP-style standing benchmark: each
// PR that touches the engine regenerates the file, so regressions show
// up in the diff). It measures ns/round and allocs/round for the
// sequential and parallel engines at fixed (n, fanout) points, the
// amortized steady-state cost of repeated runs on one pooled arena
// (the engine/reuse family), the implicit-topology neighborcast
// engines (engine/implicit-*), and probes the largest feasible n under
// a per-round time budget — once for the materialized engine and once
// for the implicit one, whose O(n)-bits residency moves the wall from
// memory to time.
//
// The memory_model section pins the residency claim itself: the bytes
// a run keeps resident per node, measured by heap delta, for the same
// flood at the same n with the topology generated on the fly versus
// materialized as adjacency lists.
//
// Parallel rows are honest: the file records the real GOMAXPROCS and
// CPU count the run saw, and every parallel row carries its measured
// speedup_vs_sequential against the matching sequential row — a
// speedup near (or below) 1.0 on a single-CPU machine is reported as
// such, not hidden.
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

	"lineartime/internal/graph"
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
	Engine       string  `json:"engine"` // "sequential" | "parallel" | "reuse" | "reuse-parallel" | "scalar-per-seed" | "sliced" | "scalar-per-seed-gossip" | "sliced-gossip" | "scalar-per-seed-gossip-links" | "sliced-gossip-links" | "implicit-sequential" | "implicit-parallel" | "implicit-sliced"
	N            int     `json:"n"`
	Fanout       int     `json:"fanout"`
	Rounds       int     `json:"rounds"`
	NsPerOp      float64 `json:"ns_per_op"`
	NsPerRound   float64 `json:"ns_per_round"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	MsgsPerRound int64   `json:"msgs_per_round"`
	// SpeedupVsSequential is set on parallel rows: the matching
	// sequential row's ns_per_op divided by this row's. Values at or
	// below 1.0 mean the worker pool bought nothing — expected when
	// GOMAXPROCS or the CPU count is 1.
	SpeedupVsSequential float64 `json:"speedup_vs_sequential,omitempty"`
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
	// HeapResidentBytes / BytesPerNode are set on implicit rows: the
	// heap the whole run keeps resident (topology + system + engine
	// planes, measured by GC-fenced heap delta) and that residency per
	// node.
	HeapResidentBytes int64   `json:"heap_resident_bytes,omitempty"`
	BytesPerNode      float64 `json:"bytes_per_node,omitempty"`

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

// castBroadcaster is the neighborcast twin of broadcaster: every node
// casts one bit to its whole d-regular neighborhood every round for
// horizon rounds, so msgs/round is n·d — the same traffic shape the
// materialized rows measure, with the topology regenerated on the fly.
type castBroadcaster struct {
	n, horizon int
}

func (c *castBroadcaster) N() int                     { return c.n }
func (c *castBroadcaster) Cast(int, int) (bool, bool) { return true, true }
func (c *castBroadcaster) Absorb(int, int, int, int)  {}
func (c *castBroadcaster) Done(rounds int) bool       { return rounds >= c.horizon }

// castLaneBroadcaster is the sliced variant: all lanes cast every
// round.
type castLaneBroadcaster struct {
	n, horizon int
}

func (c *castLaneBroadcaster) N() int                               { return c.n }
func (c *castLaneBroadcaster) CastLanes(int, int) (uint64, uint64)  { return ^uint64(0), ^uint64(0) }
func (c *castLaneBroadcaster) AbsorbLanes(int, int, uint64, uint64) {}
func (c *castLaneBroadcaster) Done(rounds int) bool                 { return rounds >= c.horizon }

// residentBytes reports the GC-fenced heap growth of build: how many
// bytes the value it returns keeps resident. Both fences run the
// collector twice so floating garbage from earlier measurements
// cannot bleed into the delta.
func residentBytes(build func() any) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(keep)
	return delta
}

// implicitResident measures the heap a whole neighborcast run keeps
// resident — topology, system, engine arena — by constructing all of
// it fresh inside the GC fence and running once.
func implicitResident(engine string, n, d, horizon, workers int) (int64, error) {
	var runErr error
	res := residentBytes(func() any {
		sh, err := graph.NewShift(n, d, 1)
		if err != nil {
			runErr = err
			return nil
		}
		rt := sim.NewRuntime()
		if engine == "implicit-sliced" {
			sys := &castLaneBroadcaster{n: n, horizon: horizon}
			cfg := sim.CastSlicedConfig{System: sys, Topology: sh, MaxRounds: horizon + 2, Lanes: sim.MaxLanes}
			if _, err := rt.RunCastSliced(cfg); err != nil {
				runErr = err
			}
			return []any{sh, rt, sys}
		}
		sys := &castBroadcaster{n: n, horizon: horizon}
		cfg := sim.CastConfig{System: sys, Topology: sh, MaxRounds: horizon + 2}
		if engine == "implicit-parallel" {
			_, err = rt.RunCastParallel(cfg, workers)
		} else {
			_, err = rt.RunCast(cfg)
		}
		if err != nil {
			runErr = err
		}
		return []any{sh, rt, sys}
	})
	return res, runErr
}

// measureImplicit measures the neighborcast engines over an implicit
// shift topology at one (n, d) shape. One op is a full run on a pooled
// Runtime; heap residency is measured once, outside the timing loop,
// for the whole working set (topology + system + arena) of a run.
func measureImplicit(engine string, n, d, horizon, workers int) (benchPoint, error) {
	sh, err := graph.NewShift(n, d, 1)
	if err != nil {
		return benchPoint{}, err
	}
	rt := sim.NewRuntime()
	defer rt.Close()
	var runErr error
	var body func(b *testing.B)
	msgsPerRound := int64(n) * int64(d)
	seedsPer := 0
	switch engine {
	case "implicit-sequential", "implicit-parallel":
		sys := &castBroadcaster{n: n, horizon: horizon}
		cfg := sim.CastConfig{System: sys, Topology: sh, MaxRounds: horizon + 2}
		run := func() (*sim.CastResult, error) { return rt.RunCast(cfg) }
		if engine == "implicit-parallel" {
			run = func() (*sim.CastResult, error) { return rt.RunCastParallel(cfg, workers) }
		}
		body = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := run(); err != nil {
					runErr = err
					b.FailNow()
				}
			}
		}
	case "implicit-sliced":
		sys := &castLaneBroadcaster{n: n, horizon: horizon}
		cfg := sim.CastSlicedConfig{System: sys, Topology: sh, MaxRounds: horizon + 2, Lanes: sim.MaxLanes}
		seedsPer = sim.MaxLanes
		body = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rt.RunCastSliced(cfg); err != nil {
					runErr = err
					b.FailNow()
				}
			}
		}
	default:
		return benchPoint{}, fmt.Errorf("unknown engine %q", engine)
	}
	resident, err := implicitResident(engine, n, d, horizon, workers)
	if err != nil {
		return benchPoint{}, err
	}
	res := testing.Benchmark(body)
	if runErr != nil {
		return benchPoint{}, runErr
	}
	nsPerOp := float64(res.NsPerOp())
	bp := benchPoint{
		Name:              fmt.Sprintf("engine/%s/n=%d/d=%d", engine, n, d),
		Engine:            engine,
		N:                 n,
		Fanout:            d,
		Rounds:            horizon,
		NsPerOp:           nsPerOp,
		NsPerRound:        nsPerOp / float64(horizon),
		AllocsPerOp:       res.AllocsPerOp(),
		BytesPerOp:        res.AllocedBytesPerOp(),
		MsgsPerRound:      msgsPerRound,
		HeapResidentBytes: resident,
		BytesPerNode:      float64(resident) / float64(n),
	}
	if seedsPer > 0 {
		bp.SeedsPerOp = seedsPer
		bp.NsPerRound = nsPerOp / float64(seedsPer) / float64(horizon)
		bp.SimsPerSec = float64(seedsPer) * 1e9 / nsPerOp
	}
	return bp, nil
}

func measure(engine string, n, fanout, horizon, workers int) (benchPoint, error) {
	cfg, bs := buildSystem(n, fanout, horizon)
	reset := func() {
		for _, bc := range bs {
			bc.rounds = 0
		}
	}
	var runErr error
	var body func(b *testing.B)
	switch engine {
	case "sequential", "parallel":
		// The public path: scenario.Execute on a pooled arena, result
		// detached per run.
		exec := scenario.Serial
		if engine == "parallel" {
			exec = scenario.Parallel(workers)
		}
		body = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reset()
				if _, err := scenario.Execute(cfg, exec); err != nil {
					runErr = err
					b.FailNow()
				}
			}
		}
	case "reuse", "reuse-parallel":
		// The arena path: b.N consecutive runs on one Runtime, so the
		// per-op numbers are the amortized steady-state cost of a
		// repeated run (allocs/op ~0 once the buffers have grown).
		rt := sim.NewRuntime()
		defer rt.Close()
		run := rt.Run
		if engine == "reuse-parallel" {
			run = func(cfg sim.Config) (*sim.Result, error) { return rt.RunParallel(cfg, workers) }
		}
		body = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reset()
				if _, err := run(cfg); err != nil {
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

// fillSpeedups sets speedup_vs_sequential on every parallel-flavoured
// row that has a matching same-shape row of its sequential flavour.
func fillSpeedups(points []benchPoint) {
	base := func(engine string, n, fanout int) float64 {
		for i := range points {
			p := &points[i]
			if p.Engine == engine && p.N == n && p.Fanout == fanout {
				return p.NsPerOp
			}
		}
		return 0
	}
	for i := range points {
		p := &points[i]
		var seq float64
		switch p.Engine {
		case "parallel":
			seq = base("sequential", p.N, p.Fanout)
		case "reuse-parallel":
			seq = base("reuse", p.N, p.Fanout)
		case "implicit-parallel":
			seq = base("implicit-sequential", p.N, p.Fanout)
		case "sliced", "sliced-gossip", "sliced-gossip-links":
			scalar := "scalar-per-seed" + strings.TrimPrefix(p.Engine, "sliced")
			for j := range points {
				q := &points[j]
				if q.Engine == scalar && q.N == p.N && q.SeedsPerOp == p.SeedsPerOp && q.SimsPerSec > 0 {
					p.SpeedupVsScalarPerSeed = p.SimsPerSec / q.SimsPerSec
				}
			}
			continue
		default:
			continue
		}
		if seq > 0 && p.NsPerOp > 0 {
			p.SpeedupVsSequential = seq / p.NsPerOp
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
		if _, err := scenario.Execute(cfg, scenario.Serial); err != nil {
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

// maxFeasibleImplicitN is the implicit-topology counterpart: it doubles
// n until one neighborcast round over a generated d-regular shift
// topology exceeds the budget. No adjacency is ever materialized, so
// the probe's cap expresses a time wall, not a memory wall.
func maxFeasibleImplicitN(d int, budget time.Duration, capN int) (int, float64, error) {
	const horizon = 5
	best, bestNs := 0, 0.0
	rt := sim.NewRuntime()
	defer rt.Close()
	for n := 1024; n <= capN; n *= 2 {
		sh, err := graph.NewShift(n, d, 1)
		if err != nil {
			return 0, 0, err
		}
		cfg := sim.CastConfig{System: &castBroadcaster{n: n, horizon: horizon},
			Topology: sh, MaxRounds: horizon + 2}
		start := time.Now()
		if _, err := rt.RunCast(cfg); err != nil {
			return 0, 0, err
		}
		perRound := time.Since(start) / horizon
		if perRound > budget {
			break
		}
		best, bestNs = n, float64(perRound.Nanoseconds())
	}
	return best, bestNs, nil
}

// memoryPoint is one measured residency shape of the memory_model
// section: the heap one flood run keeps resident with the topology
// generated on the fly versus materialized as adjacency lists.
type memoryPoint struct {
	Mode              string  `json:"mode"` // "implicit" | "materialized-csr"
	N                 int     `json:"n"`
	Degree            int     `json:"degree"`
	HeapResidentBytes int64   `json:"heap_resident_bytes"`
	BytesPerNode      float64 `json:"bytes_per_node"`
}

// measureMemory measures both modes of the memory model at one (n, d)
// shape: the full working set — topology, system, engine arena — of a
// short neighborcast flood, by GC-fenced heap delta.
func measureMemory(n, d int) ([]memoryPoint, error) {
	var firstErr error
	build := func(materialize bool) int64 {
		return residentBytes(func() any {
			sh, err := graph.NewShift(n, d, 1)
			if err != nil {
				firstErr = err
				return nil
			}
			var nb graph.Neighborhood = sh
			if materialize {
				nb = graph.Materialize(sh)
			}
			rt := sim.NewRuntime()
			sys := &castBroadcaster{n: n, horizon: 2}
			if _, err := rt.RunCast(sim.CastConfig{System: sys, Topology: nb, MaxRounds: 4}); err != nil {
				firstErr = err
				return nil
			}
			return []any{nb, rt, sys}
		})
	}
	points := []memoryPoint{
		{Mode: "implicit", N: n, Degree: d, HeapResidentBytes: build(false)},
		{Mode: "materialized-csr", N: n, Degree: d, HeapResidentBytes: build(true)},
	}
	if firstErr != nil {
		return nil, firstErr
	}
	for i := range points {
		points[i].BytesPerNode = float64(points[i].HeapResidentBytes) / float64(n)
	}
	return points, nil
}

// report is the BENCH_sim.json schema.
type report struct {
	Schema string `json:"schema"`
	Go     string `json:"go"`
	// GOMAXPROCS and NumCPU are the real values of the measuring run
	// (after any -maxprocs override); parallel rows mean nothing
	// without them.
	GOMAXPROCS  int          `json:"gomaxprocs"`
	NumCPU      int          `json:"num_cpu"`
	Benchmarks  []benchPoint `json:"benchmarks"`
	MaxFeasible struct {
		Fanout           int     `json:"fanout"`
		BudgetMsPerRound float64 `json:"budget_ms_per_round"`
		N                int     `json:"n"`
		NsPerRound       float64 `json:"ns_per_round"`
	} `json:"max_feasible_n"`
	// MaxFeasibleImplicit is the same probe on the neighborcast engine
	// over a generated shift topology: no adjacency is resident, so
	// the cap is time, not memory.
	MaxFeasibleImplicit struct {
		Degree           int     `json:"degree"`
		BudgetMsPerRound float64 `json:"budget_ms_per_round"`
		N                int     `json:"n"`
		NsPerRound       float64 `json:"ns_per_round"`
	} `json:"max_feasible_n_implicit"`
	// MemoryModel pins the residency claim behind the implicit mode:
	// bytes/node resident for the same flood at the same shape,
	// topology generated versus materialized.
	MemoryModel []memoryPoint `json:"memory_model"`
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
		{"parallel", 1000, 8, 20},
		{"parallel", 4096, 8, 20},
		// The two shapes past the parallel fast path's crossover of
		// ≈ 130 k messages per round (EXPERIMENTS.md "Sharded rounds").
		{"sequential", 16384, 8, 20},
		{"parallel", 16384, 8, 20},
		{"sequential", 4096, 64, 20},
		{"parallel", 4096, 64, 20},
		{"reuse", 1000, 8, 20},
		{"reuse", 4096, 8, 20},
		{"reuse-parallel", 4096, 8, 20},
	}
	implicitPoints := []point{
		{"implicit-sequential", 4096, 8, 20},
		{"implicit-sequential", 1 << 17, 8, 20},
		{"implicit-sequential", 1 << 20, 8, 5},
		{"implicit-parallel", 1 << 17, 8, 20},
		{"implicit-sliced", 4096, 8, 20},
	}
	memShapes := [][2]int{{1 << 17, 8}, {1 << 20, 8}}
	capN := 1 << 17
	capImplicitN := 1 << 22
	if *quick {
		points = []point{
			{"sequential", 64, 4, 5},
			{"parallel", 64, 4, 5},
			{"reuse", 64, 4, 5},
		}
		implicitPoints = []point{
			{"implicit-sequential", 1024, 4, 5},
			{"implicit-parallel", 1024, 4, 5},
			{"implicit-sliced", 1024, 4, 5},
		}
		memShapes = [][2]int{{4096, 8}}
		capN = 2048
		capImplicitN = 1 << 14
	}
	if *only == "sliced" {
		points = nil
		implicitPoints = nil
		memShapes = nil
	}

	var rep report
	rep.Schema = "lineartime/bench_sim/v5"
	rep.Go = runtime.Version()
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.NumCPU = runtime.NumCPU()
	for _, p := range points {
		bp, err := measure(p.engine, p.n, p.fanout, p.rounds, 0)
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
		// floor is 0.8 × the lowest of three quick measurements. The
		// crash-lane row's was taken when the scalar stack stopped
		// building overlays it never reads and packing a multicast per
		// neighbour: 7.48–7.80× (9.58× at the parent, whose scalar row
		// ran 24.9 ms against 19.3–19.7 ms; the sliced row 2.60 ms
		// against 2.53–2.59 ms). The link-fault row's is from the
		// run-length accounting change (4.85–5.37× then, 4.77–4.88×
		// now, still more than 10 % above its floor).
		gossipPoints = []slicedPt{
			{"scalar-per-seed-gossip", 64, 8, 16, 0},
			{"sliced-gossip", 64, 8, 16, 5.9},
			{"scalar-per-seed-gossip-links", 64, 8, 16, 0},
			{"sliced-gossip-links", 64, 8, 16, 3.8},
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
	for _, p := range implicitPoints {
		bp, err := measureImplicit(p.engine, p.n, p.fanout, p.rounds, 0)
		if err != nil {
			return fmt.Errorf("%s n=%d: %w", p.engine, p.n, err)
		}
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
	for _, shape := range memShapes {
		pts, err := measureMemory(shape[0], shape[1])
		if err != nil {
			return fmt.Errorf("memory model n=%d: %w", shape[0], err)
		}
		rep.MemoryModel = append(rep.MemoryModel, pts...)
	}
	if *only == "" {
		rep.MaxFeasible.Fanout = 8
		rep.MaxFeasible.BudgetMsPerRound = float64(*budgetMs)
		rep.MaxFeasible.N, rep.MaxFeasible.NsPerRound =
			maxFeasibleN(8, time.Duration(*budgetMs)*time.Millisecond, capN)
		rep.MaxFeasibleImplicit.Degree = 8
		rep.MaxFeasibleImplicit.BudgetMsPerRound = float64(*budgetMs)
		var probeErr error
		rep.MaxFeasibleImplicit.N, rep.MaxFeasibleImplicit.NsPerRound, probeErr =
			maxFeasibleImplicitN(8, time.Duration(*budgetMs)*time.Millisecond, capImplicitN)
		if probeErr != nil {
			return fmt.Errorf("implicit max-n probe: %w", probeErr)
		}
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
