package sim

import (
	"errors"
	"time"

	"lineartime/internal/obs"
)

// Runtime is a reusable run arena: the full engine state — the CSR
// scratch workspace, the single-port rings and their n-sized idx
// tables, the delay ring, the metrics arrays — pooled across runs. The
// first run of a given shape grows every buffer to its peak; the second
// and subsequent runs are steady-state allocation-free, which is what
// makes repeated-run workloads (sweeps, replications, benchmarks)
// cheap. A zero-ish ~1.4MB-per-run rebuild cost at n=1000 drops to
// zero.
//
// Both engines run through the same bracket (span): Run and RunSliced
// differ only in which arena they reset and which loop they run, and
// the package-level functions of the same names are one call on a
// fresh Runtime.
//
// A Runtime is not safe for concurrent use. Results it returns alias
// arena memory and are valid only until the next run on the same
// Runtime; use Result.Clone to keep one.
type Runtime struct {
	st *state
	// sl is the bit-sliced engine's arena (sliced.go), created by its
	// first run.
	sl *slicedState
}

// NewRuntime returns an empty arena.
func NewRuntime() *Runtime {
	return &Runtime{st: &state{}}
}

// oneShot is the package-level entry points' lifecycle: run on a fresh
// Runtime and copy the result envelope out of the arena so a retained
// result pins only the slices it references.
func oneShot[R any](run func(*Runtime) (*R, error)) (*R, error) {
	res, err := run(NewRuntime())
	if err != nil {
		return nil, err
	}
	r := *res
	return &r, nil
}

// span is the run bracket shared by every engine entry point — begin,
// ready(arena.reset(cfg)), the engine's loop, finish. It owns the tracer
// protocol (one StageSetup, one StageRounds and one RunDone per run, or a
// lone RunDone(OutcomeError) when the arena rejects the config) and the
// arena's detach, so an idle pooled arena never pins a caller's protocol
// system, finished or failed. The tracer is captured up front because
// detach clears the arena's copy of the config; a nil tracer costs one
// branch per call.
type span struct {
	tr     obs.RunTracer
	engine obs.Engine
	arena  interface{ detach() }
	t0, t1 time.Time
}

func begin(tr obs.RunTracer, engine obs.Engine, arena interface{ detach() }) span {
	sp := span{tr: tr, engine: engine, arena: arena}
	if tr != nil {
		sp.t0 = time.Now()
	}
	return sp
}

// ready closes the setup stage with the arena's verdict on the config.
// A reset that fails has typically captured the config already, so the
// arena is detached before the error is reported and returned.
func (sp *span) ready(err error) error {
	if err != nil {
		sp.arena.detach()
		if sp.tr != nil {
			sp.tr.RunDone(sp.engine, obs.OutcomeError, 0, time.Since(sp.t0))
		}
		return err
	}
	if sp.tr != nil {
		sp.t1 = time.Now()
		sp.tr.StageDuration(obs.StageSetup, sp.t1.Sub(sp.t0))
	}
	return nil
}

// finish detaches the arena and reports the rounds stage and the run's
// outcome; rounds is the round count the run reached.
func (sp *span) finish(rounds int, err error) {
	sp.arena.detach()
	if sp.tr != nil {
		now := time.Now()
		sp.tr.StageDuration(obs.StageRounds, now.Sub(sp.t1))
		sp.tr.RunDone(sp.engine, runOutcome(err), rounds, now.Sub(sp.t0))
	}
}

// runOutcome classifies a run error for the tracer's outcome label.
func runOutcome(err error) obs.Outcome {
	switch {
	case err == nil:
		return obs.OutcomeOK
	case errors.Is(err, ErrNoTermination):
		return obs.OutcomeNoTermination
	default:
		return obs.OutcomeError
	}
}

// Run executes the configured system on the sequential engine, reusing
// the arena's buffers. See Runtime for the result-aliasing contract.
func (rt *Runtime) Run(cfg Config) (*Result, error) {
	sp := begin(cfg.Tracer, obs.EngineSequential, rt.st)
	if err := sp.ready(rt.st.reset(cfg)); err != nil {
		return nil, err
	}
	return rt.st.runIn(&sp)
}

// runIn runs the round loop of a reset state inside sp and reports how
// many of the run's rounds were executed, how many passed as quiet and
// how many repeated.
func (s *state) runIn(sp *span) (*Result, error) {
	res, err := s.run()
	rounds := s.cfg.MaxRounds
	if res != nil {
		rounds = res.Metrics.Rounds
	}
	sp.finish(rounds, err)
	if sp.tr != nil {
		sp.tr.RoundsExecuted(s.simulated-s.skipped, s.skipped-s.repeated, s.repeated)
	}
	return res, err
}
