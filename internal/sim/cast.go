package sim

import (
	"fmt"
	"slices"

	"lineartime/internal/bitset"
	"lineartime/internal/graph"
	"lineartime/internal/obs"
)

// This file is the neighborcast engine: the streamed execution mode
// for one-bit broadcast rounds over implicit topologies. The general
// engine (sim.go) materializes every round's traffic — outboxes, a
// packed wire plane, CSR inboxes — which is the right shape for
// arbitrary payloads and per-link schedules, but it keeps O(n·d)
// state resident, and past n ≈ 10^5 that memory is the wall, not
// compute. The neighborcast mode exploits the structure shared by the
// paper's flooding/probing phases: every node sends at most one bit
// per round, and it sends the same bit to every neighbor. Under that
// shape, delivery can be PULLED instead of routed: publish each
// node's (bit, casting) pair as two bitset planes — O(n) bits total —
// and let each receiver regenerate its neighbor list from the seeded
// construction (graph.Neighborhood) and gather counts on the fly with
// O(d) scratch. Nothing per-edge is ever stored, which is what breaks
// the memory wall and opens n ≥ 2^20.

// CastSystem is the per-node state machine of a neighborcast run. The
// engine calls Cast for every alive node, then Absorb for every alive
// node, once per round; both orders are ascending by node on the
// sequential engine, and Absorb(u) observes exactly the casts of
// round r regardless of engine, so the parallel engine is
// result-identical.
//
// The parallel engine calls Cast and Absorb for distinct nodes
// concurrently; implementations keep per-node state disjoint (the
// natural shape for a distributed protocol) or serialize internally.
type CastSystem interface {
	// N returns the number of nodes.
	N() int
	// Cast returns node u's one-bit broadcast for the round; send
	// false keeps u silent this round.
	Cast(u, round int) (bit, send bool)
	// Absorb delivers the gathered round to u: ones and zeros count
	// the casting in-neighbors of u whose bit was 1 resp. 0 (after
	// crashes and the link filter).
	Absorb(u, round, ones, zeros int)
	// Done reports whether the system has terminated after the given
	// number of completed rounds; the engine stops early when true.
	Done(rounds int) bool
}

// CastConfig configures a neighborcast run.
type CastConfig struct {
	// System is the protocol.
	System CastSystem
	// Topology generates the (sorted) neighbor lists. An implicit
	// generator (graph.Shift) keeps the run's resident topology state
	// at O(d); a materialized *graph.Graph works identically.
	Topology graph.Neighborhood
	// MaxRounds bounds the run.
	MaxRounds int
	// Crash gives node u's crash round (first round at which u is
	// silent and deaf), or a negative value if u never crashes; nil
	// means no crashes. Neighborcast crashes are clean — a crashed
	// node's round emits nothing, never a partial multicast (the
	// general engine's Keep-prefix crashes route per-link and need
	// the materialized path).
	Crash func(u int) int
	// Filter is an optional per-link fault model. It must never
	// delay (MaxDelay 0): pulled delivery has no in-flight plane to
	// park a delayed bit in. Drops apply per (round, from, to) edge,
	// exactly as on the general engine.
	Filter LinkFilter
	// Tracer optionally receives stage timings and the run outcome;
	// the steady state stays allocation-free with one installed.
	Tracer obs.RunTracer
}

// CastResult is the outcome envelope of a neighborcast run. Like
// Result, the paper's two measures: Messages counts one envelope per
// neighbor per cast (at send time, after crashes, before link drops)
// and every payload is one bit, so Bits equals Messages.
type CastResult struct {
	Rounds   int
	Messages int64
	Bits     int64
	// Alive is the number of non-crashed nodes at the end.
	Alive int
}

// crashEvent schedules one node's clean crash.
type crashEvent struct{ round, node int }

// castState is the pooled arena of the neighborcast engine: three
// bitset planes (alive, casting, bit values) of n bits each plus O(d)
// neighbor scratch — the entire resident footprint of a run. It is
// recycled across runs by Runtime; after the first run of a shape,
// steady-state runs are allocation-free.
type castState struct {
	sys    CastSystem
	nb     graph.Neighborhood
	filter LinkFilter

	n         int
	maxRounds int
	round     int // current round, read by pool workers

	alive  *bitset.Set // not yet crashed
	active *bitset.Set // cast something this round
	bits   *bitset.Set // the cast bit, meaningful where active

	crashes   []crashEvent
	nextCrash int
	msgs      int64

	// Per-worker state (the sequential engine is one worker, the
	// caller): 64-aligned shard bounds (so two workers never write the
	// same bitset word), per-worker neighbor regeneration buffers
	// (grown to the maximum degree by the first run), and per-worker
	// message counters.
	bounds   []int
	wscratch [][]int
	wmsgs    []int64

	res CastResult
}

// castShape checks what both neighborcast engines (mode names the one
// asking) require of a config and returns the node count.
func castShape(mode string, sys interface{ N() int }, top graph.Neighborhood, maxRounds int) (int, error) {
	if sys == nil || top == nil {
		return 0, fmt.Errorf("sim: %s needs a System and a Topology", mode)
	}
	n := sys.N()
	if tn := top.N(); tn != n {
		return 0, fmt.Errorf("sim: %s system has %d nodes but topology has %d", mode, n, tn)
	}
	if n <= 0 {
		return 0, fmt.Errorf("sim: %s needs n > 0, got %d", mode, n)
	}
	if maxRounds <= 0 {
		return 0, fmt.Errorf("sim: %s needs MaxRounds > 0, got %d", mode, maxRounds)
	}
	return n, nil
}

func (cs *castState) reset(cfg CastConfig) error {
	n, err := castShape("neighborcast", cfg.System, cfg.Topology, cfg.MaxRounds)
	if err != nil {
		return err
	}
	if cfg.Filter != nil {
		if d := cfg.Filter.MaxDelay(); d != 0 {
			return fmt.Errorf("sim: neighborcast cannot delay (filter MaxDelay %d); delay faults need the materialized engine", d)
		}
	}
	cs.sys, cs.nb, cs.filter = cfg.System, cfg.Topology, cfg.Filter
	cs.maxRounds = cfg.MaxRounds
	if cs.n != n || cs.alive == nil {
		cs.n = n
		cs.alive = bitset.New(n)
		cs.active = bitset.New(n)
		cs.bits = bitset.New(n)
	} else {
		cs.active.Clear()
		cs.bits.Clear()
	}
	cs.alive.Fill()
	cs.crashes = cs.crashes[:0]
	cs.nextCrash = 0
	if cfg.Crash != nil {
		for u := 0; u < n; u++ {
			if r := cfg.Crash(u); r >= 0 {
				cs.crashes = append(cs.crashes, crashEvent{round: r, node: u})
			}
		}
		slices.SortFunc(cs.crashes, func(a, b crashEvent) int {
			if a.round != b.round {
				return a.round - b.round
			}
			return a.node - b.node
		})
	}
	cs.msgs = 0
	cs.res = CastResult{}
	return nil
}

// detach drops the references a finished run borrowed from its
// config, so a pooled arena never pins the caller's system.
func (cs *castState) detach() {
	cs.sys, cs.nb, cs.filter = nil, nil, nil
}

// applyCrashes executes the round's crash seam.
func (cs *castState) applyCrashes(r int) {
	for cs.nextCrash < len(cs.crashes) && cs.crashes[cs.nextCrash].round <= r {
		cs.alive.Remove(cs.crashes[cs.nextCrash].node)
		cs.nextCrash++
	}
}

// castRange runs the publish half of a round for nodes [lo, hi):
// every alive node's (bit, casting) pair lands in the bit planes, and
// each cast is charged deg(u) one-bit messages. Ranges handed to
// concurrent workers are 64-aligned, so all bitset word writes in
// [lo, hi) are exclusive to this call.
func (cs *castState) castRange(r, lo, hi int) int64 {
	var msgs int64
	for u := lo; u < hi; u++ {
		if !cs.alive.Contains(u) {
			cs.active.Remove(u)
			continue
		}
		bit, send := cs.sys.Cast(u, r)
		if !send {
			cs.active.Remove(u)
			continue
		}
		cs.active.Add(u)
		if bit {
			cs.bits.Add(u)
		} else {
			cs.bits.Remove(u)
		}
		msgs += int64(cs.nb.Degree(u))
	}
	return msgs
}

// absorbRange runs the gather half of a round for nodes [lo, hi):
// each alive node regenerates its neighbor list into scratch and
// counts the casting neighbors' bits, applying the link filter per
// pulled edge. It only reads the shared planes, so any partition of
// the node range is race-free.
func (cs *castState) absorbRange(r, lo, hi int, scratch []int) []int {
	for u := lo; u < hi; u++ {
		if !cs.alive.Contains(u) {
			continue
		}
		scratch = cs.nb.AppendNeighbors(u, scratch[:0])
		ones, zeros := 0, 0
		for _, w := range scratch {
			if !cs.active.Contains(w) {
				continue
			}
			bit := cs.bits.Contains(w)
			if cs.filter != nil &&
				cs.filter.FilterLink(r, Envelope{From: w, To: u, Payload: Bit(bit)}) != Deliver {
				continue
			}
			if bit {
				ones++
			} else {
				zeros++
			}
		}
		cs.sys.Absorb(u, r, ones, zeros)
	}
	return scratch
}

// The parallel neighborcast engine shards the node range over the
// Runtime's worker pool (phasePool, pool.go). Each round has two
// barriers, matching the sequential engine's two halves: all workers
// cast (publish into the shared bit planes), then all workers absorb
// (gather from them). The cast half writes bitset words, so shard
// boundaries are rounded up to multiples of 64: two workers never touch
// the same machine word, and no atomics are needed. The absorb half only
// reads the planes, and per-node system state is disjoint by the
// CastSystem contract, so any partition is race-free there. The crash
// seam and the Done check run serially on the caller between barriers.
// Because Absorb(u) observes exactly the full round's casts either way,
// the parallel engine is result-identical to the sequential one.

// The neighborcast engine's phases.
const (
	castJobCast = iota
	castJobAbsorb
)

// phase implements phaser: worker w's share of one half round.
func (cs *castState) phase(kind, w int) {
	lo, hi := cs.bounds[w], cs.bounds[w+1]
	switch kind {
	case castJobCast:
		cs.wmsgs[w] = cs.castRange(cs.round, lo, hi)
	case castJobAbsorb:
		cs.wscratch[w] = cs.absorbRange(cs.round, lo, hi, cs.wscratch[w])
	}
}

// shard computes 64-aligned shard bounds for w workers and sizes the
// per-worker scratch and message accumulators, reusing prior capacity.
func (cs *castState) shard(w int) {
	cs.bounds = growSlice(cs.bounds, w+1)
	for i := range cs.bounds {
		cs.bounds[i] = min((i*cs.n/w+63)&^63, cs.n)
	}
	for len(cs.wscratch) < w {
		cs.wscratch = append(cs.wscratch, nil)
	}
	cs.wmsgs = growSlice(cs.wmsgs, w)
}

// run executes the neighborcast loop, each half round as one phase over
// the sharded pool — on the caller when p is nil.
func (cs *castState) run(p *phasePool) *CastResult {
	rounds := 0
	for r := 0; r < cs.maxRounds; r++ {
		cs.applyCrashes(r)
		cs.round = r
		p.run(cs, castJobCast)
		for _, m := range cs.wmsgs {
			cs.msgs += m
		}
		p.run(cs, castJobAbsorb)
		rounds = r + 1
		if cs.sys.Done(rounds) {
			break
		}
	}
	cs.res = CastResult{
		Rounds:   rounds,
		Messages: cs.msgs,
		Bits:     cs.msgs, // every payload is one bit
		Alive:    cs.alive.Count(),
	}
	return &cs.res
}

// RunCast executes a neighborcast system on the sequential engine,
// reusing the arena's buffers; steady-state runs of one shape are
// allocation-free. The returned result is owned by the arena and
// valid until the next cast run on this Runtime.
func (rt *Runtime) RunCast(cfg CastConfig) (*CastResult, error) {
	return rt.runCast(cfg, obs.EngineCast, 0)
}

// RunCastParallel executes a neighborcast system on the sharded worker
// pool, reusing the arena's buffers and its persistent workers. It is
// result-identical to RunCast. The System's Cast/Absorb are called
// concurrently for distinct nodes (see CastSystem), and a non-nil
// Filter must be safe for concurrent FilterLink calls — the stateless
// link models (e.g. seeded per-edge omission) are. The returned result
// is owned by the arena and valid until the next cast run on this
// Runtime.
func (rt *Runtime) RunCastParallel(cfg CastConfig, workers int) (*CastResult, error) {
	return rt.runCast(cfg, obs.EngineCastParallel, workers)
}

// runCast is both cast entry points: the sequential engine is a single
// shard run on the caller, the parallel one takes the worker count.
func (rt *Runtime) runCast(cfg CastConfig, engine obs.Engine, workers int) (*CastResult, error) {
	if rt.cs == nil {
		rt.cs = &castState{}
	}
	cs := rt.cs
	sp := begin(cfg.Tracer, engine, cs)
	err := cs.reset(cfg)
	var pool *phasePool
	if err == nil {
		w := 1
		if engine == obs.EngineCastParallel {
			w = resolveWorkers(workers, cs.n)
			pool = rt.workers(w)
		}
		cs.shard(w)
	}
	if err := sp.ready(err); err != nil {
		return nil, err
	}
	res := cs.run(pool)
	sp.finish(res.Rounds, nil)
	return res, nil
}

// RunCast executes the configured neighborcast system on a fresh
// arena.
func RunCast(cfg CastConfig) (*CastResult, error) {
	return oneShot(func(rt *Runtime) (*CastResult, error) { return rt.RunCast(cfg) })
}

// RunCastParallel executes the configured neighborcast system on a
// fresh arena with the given worker count.
func RunCastParallel(cfg CastConfig, workers int) (*CastResult, error) {
	return oneShot(func(rt *Runtime) (*CastResult, error) { return rt.RunCastParallel(cfg, workers) })
}
