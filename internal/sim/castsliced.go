package sim

import (
	"fmt"
	mathbits "math/bits"

	"lineartime/internal/bitset"
	"lineartime/internal/graph"
	"lineartime/internal/obs"
)

// The bit-sliced neighborcast engine runs up to 64 independent
// fault-free simulations per machine word over one shared (implicit or
// materialized) topology, combining the batch engine's lane packing
// with the cast engine's pulled delivery. Per node the resident state
// is two words — the cast bits and the casting mask across lanes — so
// a 64-lane batch at n = 2^20 stays at 16 MB regardless of degree.
// The gather is pure word-OR: a receiver learns, per lane, whether any
// casting neighbor sent a 1 and whether any neighbor cast at all,
// which is exactly the information the paper's flooding/probing
// phases consume.

// CastLanesSystem is the per-node state machine of a sliced
// neighborcast run: every method answers for all lanes at once.
type CastLanesSystem interface {
	// N returns the number of nodes.
	N() int
	// CastLanes returns node u's round: active marks the lanes in
	// which u casts, bits the cast value per lane. The engine enforces
	// bits ⊆ active.
	CastLanes(u, round int) (bits, active uint64)
	// AbsorbLanes delivers the gathered round to u: ones marks the
	// lanes in which at least one casting neighbor sent a 1, any the
	// lanes in which at least one neighbor cast at all.
	AbsorbLanes(u, round int, ones, any uint64)
	// Done reports whether all lanes have terminated after the given
	// number of completed rounds.
	Done(rounds int) bool
}

// CastSlicedConfig configures a sliced neighborcast run. The sliced
// path is fault-free: crash schedules and link filters are per-lane
// concepts the shared word layout cannot express cheaply — use RunCast
// per lane for faulty runs.
type CastSlicedConfig struct {
	System    CastLanesSystem
	Topology  graph.Neighborhood
	MaxRounds int
	// Lanes is the number of replicas, in [1, MaxLanes].
	Lanes int
	// Tracer optionally receives stage timings and the run outcome;
	// the steady state stays allocation-free with one installed.
	Tracer obs.RunTracer
}

// CastSlicedResult is the outcome of a sliced neighborcast run.
// Messages (== one-bit payloads, so also bits) is per lane and aliases
// arena memory: it is valid until the next sliced cast run on the same
// Runtime.
type CastSlicedResult struct {
	Rounds   int
	Messages []int64
}

// castSlicedState is the pooled arena of the sliced neighborcast
// engine: two words per node plus O(d) scratch and 64 counters.
type castSlicedState struct {
	sys       CastLanesSystem
	nb        graph.Neighborhood
	n         int
	lanes     int
	all       uint64 // mask of configured lanes
	maxRounds int

	castWord   []uint64 // cast bit per lane, meaningful where active
	activeWord []uint64 // casting mask per lane
	scratch    []int
	msgs       [MaxLanes]int64

	res CastSlicedResult
}

func (s *castSlicedState) reset(cfg CastSlicedConfig) error {
	n, err := castShape("sliced neighborcast", cfg.System, cfg.Topology, cfg.MaxRounds)
	if err != nil {
		return err
	}
	if cfg.Lanes <= 0 || cfg.Lanes > MaxLanes {
		return fmt.Errorf("sim: sliced neighborcast Lanes must be in [1, %d], got %d", MaxLanes, cfg.Lanes)
	}
	s.sys, s.nb = cfg.System, cfg.Topology
	s.n, s.lanes, s.maxRounds = n, cfg.Lanes, cfg.MaxRounds
	s.all = bitset.LaneMask(cfg.Lanes)
	if cap(s.castWord) < n {
		s.castWord = make([]uint64, n)
		s.activeWord = make([]uint64, n)
	}
	s.castWord = s.castWord[:n]
	s.activeWord = s.activeWord[:n]
	if d := cfg.Topology.MaxDegree(); cap(s.scratch) < d {
		s.scratch = make([]int, 0, d)
	}
	clear(s.msgs[:])
	s.res = CastSlicedResult{}
	return nil
}

func (s *castSlicedState) detach() {
	s.sys, s.nb = nil, nil
}

func (s *castSlicedState) run() *CastSlicedResult {
	rounds := 0
	for r := 0; r < s.maxRounds; r++ {
		// Publish: one CastLanes call per node fills the two planes,
		// and each casting lane is charged deg(u) one-bit messages.
		for u := 0; u < s.n; u++ {
			bits, active := s.sys.CastLanes(u, r)
			active &= s.all
			bits &= active
			s.castWord[u] = bits
			s.activeWord[u] = active
			if active != 0 {
				deg := int64(s.nb.Degree(u))
				for m := active; m != 0; m &= m - 1 {
					s.msgs[mathbits.TrailingZeros64(m)] += deg
				}
			}
		}
		// Gather: regenerate each node's neighbor list and OR the
		// planes across it.
		for u := 0; u < s.n; u++ {
			s.scratch = s.nb.AppendNeighbors(u, s.scratch[:0])
			var ones, any uint64
			for _, w := range s.scratch {
				ones |= s.castWord[w]
				any |= s.activeWord[w]
			}
			s.sys.AbsorbLanes(u, r, ones, any)
		}
		rounds = r + 1
		if s.sys.Done(rounds) {
			break
		}
	}
	s.res = CastSlicedResult{Rounds: rounds, Messages: s.msgs[:s.lanes]}
	return &s.res
}

// RunCastSliced executes a sliced neighborcast system, reusing the
// arena's buffers; steady-state runs of one shape are allocation-free.
// The returned result aliases arena memory and is valid until the next
// sliced cast run on this Runtime.
func (rt *Runtime) RunCastSliced(cfg CastSlicedConfig) (*CastSlicedResult, error) {
	if rt.csl == nil {
		rt.csl = &castSlicedState{}
	}
	sp := begin(cfg.Tracer, obs.EngineCastSliced, rt.csl)
	if err := sp.ready(rt.csl.reset(cfg)); err != nil {
		return nil, err
	}
	res := rt.csl.run()
	sp.finish(res.Rounds, nil)
	return res, nil
}

// RunCastSliced executes the configured sliced neighborcast system on
// a fresh arena.
func RunCastSliced(cfg CastSlicedConfig) (*CastSlicedResult, error) {
	return oneShot(func(rt *Runtime) (*CastSlicedResult, error) { return rt.RunCastSliced(cfg) })
}
