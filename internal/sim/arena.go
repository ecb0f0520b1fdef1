package sim

import (
	"runtime"
	"time"

	"lineartime/internal/obs"
)

// Runtime is a reusable run arena: the full engine state — the CSR
// scratch workspace, the wire-plane escape table, the single-port
// rings and their n-sized idx tables, the delay ring, the metrics
// arrays, and (for parallel runs) the worker pool with its shard-local
// buffers — pooled across runs. The first run of a given shape grows
// every buffer to its peak; the second and subsequent runs are
// steady-state allocation-free, which is what makes repeated-run
// workloads (sweeps, replications, benchmarks) cheap. A zero-ish
// ~1.4MB-per-run rebuild cost at n=1000 drops to zero.
//
// A Runtime is not safe for concurrent use. Results it returns alias
// arena memory and are valid only until the next run on the same
// Runtime; use Result.Clone to keep one.
type Runtime struct {
	st *state
	// sl holds the bit-sliced engine's arena (sliced.go), created on
	// the first RunSliced and recycled across sliced runs.
	sl *slicedState
	// slot holds the persistent worker pool, created on the first
	// RunParallel and kept across runs (workers stay parked on their
	// job channels between runs). The indirection exists for the
	// finalizer: one cleanup per Runtime is registered against the
	// slot, so replacing the pool (worker-count change) does not
	// accumulate registrations that would pin dead pools.
	slot *poolSlot
	// cs holds the neighborcast engine's arena (cast.go), created on
	// the first RunCast/RunCastParallel and recycled across cast runs.
	cs *castState
	// csl holds the sliced neighborcast arena (castsliced.go).
	csl *castSlicedState
	// castSlot holds the neighborcast engine's persistent worker pool,
	// with the same one-cleanup-per-Runtime indirection as slot.
	castSlot *castPoolSlot
}

// poolSlot is the stable object the Runtime's cleanup watches.
type poolSlot struct {
	p *pool
}

// NewRuntime returns an empty arena. Close releases the worker pool
// when the Runtime is done; a finalizer covers arenas that are simply
// dropped.
func NewRuntime() *Runtime {
	return &Runtime{st: &state{}}
}

// Run executes the configured system on the sequential engine, reusing
// the arena's buffers. See Runtime for the result-aliasing contract.
func (rt *Runtime) Run(cfg Config) (*Result, error) {
	// Capture the tracer before reset/detach: detach clears the
	// captured cfg, and the nil fast path must stay branch-only.
	tr := cfg.Tracer
	var t0, t1 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	if err := rt.st.reset(cfg); err != nil {
		// reset already captured cfg; drop it so a pooled arena does
		// not pin the caller's protocol system after a failed run.
		rt.st.detach()
		if tr != nil {
			tr.RunDone(obs.EngineSequential, obs.OutcomeError, 0, time.Since(t0))
		}
		return nil, err
	}
	if tr != nil {
		t1 = time.Now()
		tr.StageDuration(obs.StageSetup, t1.Sub(t0))
	}
	res, err := rt.st.run()
	rt.st.detach()
	if tr != nil {
		now := time.Now()
		tr.StageDuration(obs.StageRounds, now.Sub(t1))
		rounds := cfg.MaxRounds
		if res != nil {
			rounds = res.Metrics.Rounds
		}
		tr.RunDone(obs.EngineSequential, runOutcome(err), rounds, now.Sub(t0))
		tr.RoundsExecuted(rt.st.simulated-rt.st.skipped, rt.st.skipped)
	}
	return res, err
}

// RunParallel executes the configured system on the sharded worker
// pool, reusing the arena's buffers and its persistent workers. The
// constraints of the package-level RunParallel apply. See Runtime for
// the result-aliasing contract.
func (rt *Runtime) RunParallel(cfg Config, workers int) (*Result, error) {
	tr := cfg.Tracer
	var t0, t1 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	if err := validateParallelConfig(cfg); err != nil {
		if tr != nil {
			tr.RunDone(obs.EngineParallel, obs.OutcomeError, 0, time.Since(t0))
		}
		return nil, err
	}
	if err := rt.st.reset(cfg); err != nil {
		rt.st.detach()
		if tr != nil {
			tr.RunDone(obs.EngineParallel, obs.OutcomeError, 0, time.Since(t0))
		}
		return nil, err
	}
	w := resolveWorkers(workers, rt.st.n)
	if rt.slot == nil {
		rt.slot = &poolSlot{}
		// The pool's goroutines keep the pool, the slot and the state
		// alive but not the Runtime itself, so a dropped Runtime still
		// becomes unreachable and the cleanup reaps whatever pool the
		// slot holds at that point.
		runtime.AddCleanup(rt, func(s *poolSlot) {
			if s.p != nil {
				s.p.shutdown()
			}
		}, rt.slot)
	}
	switch pl := rt.slot.p; {
	case pl == nil:
		rt.slot.p = newPool(rt.st, w)
	case pl.workers != w:
		pl.shutdown()
		rt.slot.p = newPool(rt.st, w)
	default:
		pl.prepare(rt.st)
	}
	rt.st.pool = rt.slot.p
	if tr != nil {
		t1 = time.Now()
		tr.StageDuration(obs.StageSetup, t1.Sub(t0))
	}
	res, err := rt.st.run()
	rt.st.detach()
	if tr != nil {
		now := time.Now()
		tr.StageDuration(obs.StageRounds, now.Sub(t1))
		rounds := cfg.MaxRounds
		if res != nil {
			rounds = res.Metrics.Rounds
		}
		tr.RunDone(obs.EngineParallel, runOutcome(err), rounds, now.Sub(t0))
		tr.RoundsExecuted(rt.st.simulated-rt.st.skipped, rt.st.skipped)
	}
	return res, err
}

// Close stops the arena's persistent worker pools, if any. The Runtime
// remains usable; a later parallel run starts a fresh pool.
func (rt *Runtime) Close() {
	if rt.slot != nil && rt.slot.p != nil {
		rt.slot.p.shutdown()
		rt.slot.p = nil
	}
	if rt.castSlot != nil && rt.castSlot.p != nil {
		rt.castSlot.p.shutdown()
		rt.castSlot.p = nil
	}
}
