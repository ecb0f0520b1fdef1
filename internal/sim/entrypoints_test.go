package sim

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"lineartime/internal/obs"
)

// tracerLog is a RunTracer that records every call it receives.
type tracerLog struct {
	stages   map[obs.Stage]int
	engines  []obs.Engine
	outcomes []obs.Outcome
	executed int // RoundsExecuted calls
}

func (l *tracerLog) StageDuration(s obs.Stage, _ time.Duration) {
	if l.stages == nil {
		l.stages = make(map[obs.Stage]int)
	}
	l.stages[s]++
}

func (l *tracerLog) RunDone(e obs.Engine, o obs.Outcome, _ int, _ time.Duration) {
	l.engines = append(l.engines, e)
	l.outcomes = append(l.outcomes, o)
}

func (l *tracerLog) RoundsExecuted(int, int) { l.executed++ }

// TestEveryEntryPointReports pins the run tracer contract on all six
// ways into an engine — the three Runtime methods and the three
// package-level functions of the same names: a successful run reports
// exactly one setup stage, one rounds stage and one RunDone with its own
// engine (and one RoundsExecuted on the two engines that can
// fast-forward); a config the arena rejects reports exactly one
// RunDone(OutcomeError) and nothing else. The table covers every engine
// label obs knows, so a label no entry point reports fails here.
func TestEveryEntryPointReports(t *testing.T) {
	// Each engine runs one small system; ok=false zeroes MaxRounds,
	// which every arena's reset rejects.
	rounds := func(ok bool, n int) int {
		if ok {
			return n
		}
		return 0
	}
	pushed := func(tr obs.RunTracer, ok bool) Config {
		ps, _ := buildFlood(24, 6, 1)
		return Config{Protocols: ps, MaxRounds: rounds(ok, 20), Tracer: tr}
	}
	sliced := func(tr obs.RunTracer, ok bool) SlicedConfig {
		inputs := make([]bool, 16)
		inputs[3] = true
		return SlicedConfig{System: newWordFlood(16, 2, 8, inputs), Lanes: 8,
			MaxRounds: rounds(ok, 10), Tracer: tr}
	}

	type entry struct {
		name   string
		engine obs.Engine
		skips  bool // reports RoundsExecuted
		run    func(rt *Runtime, tr obs.RunTracer, ok bool) error
	}
	entries := []entry{
		{"Run", obs.EngineSequential, true, func(rt *Runtime, tr obs.RunTracer, ok bool) (err error) {
			if rt != nil {
				_, err = rt.Run(pushed(tr, ok))
			} else {
				_, err = Run(pushed(tr, ok))
			}
			return err
		}},
		{"RunParallel", obs.EngineParallel, true, func(rt *Runtime, tr obs.RunTracer, ok bool) (err error) {
			if rt != nil {
				_, err = rt.RunParallel(pushed(tr, ok), 2)
			} else {
				_, err = RunParallel(pushed(tr, ok), 2)
			}
			return err
		}},
		{"RunSliced", obs.EngineSliced, false, func(rt *Runtime, tr obs.RunTracer, ok bool) (err error) {
			if rt != nil {
				_, err = rt.RunSliced(sliced(tr, ok))
			} else {
				_, err = RunSliced(sliced(tr, ok))
			}
			return err
		}},
	}

	// One name, one meaning: the table's engines are exactly the labels
	// obs knows (the enum up to its first "unknown").
	var labels, reported []obs.Engine
	for e := obs.Engine(0); e.String() != "unknown"; e++ {
		labels = append(labels, e)
	}
	for _, e := range entries {
		reported = append(reported, e.engine)
	}
	if !reflect.DeepEqual(labels, reported) {
		t.Fatalf("entry points report engines %v, obs labels are %v", reported, labels)
	}

	for _, e := range entries {
		for _, pooled := range []bool{true, false} {
			name := "sim." + e.name
			var rt *Runtime
			if pooled {
				name = "Runtime." + e.name
				rt = NewRuntime()
				defer rt.Close()
			}
			t.Run(name, func(t *testing.T) {
				var good tracerLog
				if err := e.run(rt, &good, true); err != nil {
					t.Fatal(err)
				}
				want := tracerLog{
					stages:   map[obs.Stage]int{obs.StageSetup: 1, obs.StageRounds: 1},
					engines:  []obs.Engine{e.engine},
					outcomes: []obs.Outcome{obs.OutcomeOK},
				}
				if e.skips {
					want.executed = 1
				}
				if !reflect.DeepEqual(good, want) {
					t.Fatalf("successful run reported %+v, want %+v", good, want)
				}

				var bad tracerLog
				if err := e.run(rt, &bad, false); err == nil {
					t.Fatal("MaxRounds 0 accepted")
				}
				want = tracerLog{
					engines:  []obs.Engine{e.engine},
					outcomes: []obs.Outcome{obs.OutcomeError},
				}
				if !reflect.DeepEqual(bad, want) {
					t.Fatalf("rejected config reported %+v, want %+v", bad, want)
				}
			})
		}
	}

	// The parallel engine's own config check fails the same way.
	var bad tracerLog
	cfg := pushed(&bad, true)
	cfg.SinglePort = true
	if _, err := RunParallel(cfg, 2); err == nil {
		t.Fatal("single-port parallel run accepted")
	}
	want := tracerLog{engines: []obs.Engine{obs.EngineParallel}, outcomes: []obs.Outcome{obs.OutcomeError}}
	if !reflect.DeepEqual(bad, want) {
		t.Fatalf("single-port parallel run reported %+v, want %+v", bad, want)
	}
}

// settled waits briefly for exiting goroutines to leave the count —
// shutdown returns once the workers are past their last instruction of
// ours, a moment before the scheduler forgets them — and reports whether
// at most limit remain. It never forces a GC: nothing here may depend on
// a finalizer.
func settled(limit int) bool {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if runtime.NumGoroutine() <= limit {
			return true
		}
	}
	return false
}

// TestPoolLifecycle pins the worker pool's lifecycle: the one-shot
// entry point stops its workers before returning, and on a Runtime
// Close stops them for good until the next parallel run, a worker-count
// change replaces them, and a failed run parks them reusable.
func TestPoolLifecycle(t *testing.T) {
	pushedCfg := func() Config {
		ps, _ := buildFlood(48, 8, 3)
		return Config{Protocols: ps, MaxRounds: 30}
	}

	// Reap what earlier tests dropped without Close, so their cleanups
	// cannot shrink the count under this test; from here on no GC is
	// forced.
	runtime.GC()
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if _, err := RunParallel(pushedCfg(), 2); err != nil {
			t.Fatal(err)
		}
	}
	if !settled(before + 2) {
		t.Fatalf("one-shot parallel runs leaked workers: %d goroutines before, %d after", before, runtime.NumGoroutine())
	}

	rt := NewRuntime()
	if _, err := rt.RunParallel(pushedCfg(), 2); err != nil {
		t.Fatal(err)
	}
	pool := rt.pool
	if pool == nil || len(pool.jobs) != 2 || !settled(before+2) {
		t.Fatalf("a 2-worker run left %d goroutines over %d", runtime.NumGoroutine()-before, before)
	}

	// A worker-count change replaces the workers, not adds to them.
	if _, err := rt.RunParallel(pushedCfg(), 3); err != nil {
		t.Fatal(err)
	}
	if rt.pool != pool || len(pool.jobs) != 3 || !settled(before+3) {
		t.Fatalf("a 3-worker run left %d goroutines over %d", runtime.NumGoroutine()-before, before)
	}

	// An error mid-run parks the workers; the next run reuses them.
	ps := make([]Protocol, 16)
	for i := range ps {
		ps[i] = &badAt{id: i, fireRound: 99}
	}
	ps[7] = &badAt{id: 7, fireRound: 2}
	if _, err := rt.RunParallel(Config{Protocols: ps, MaxRounds: 20}, 3); err == nil {
		t.Fatal("invalid envelope accepted")
	}
	phases := pool.phases
	seq, err := Run(pushedCfg())
	if err != nil {
		t.Fatal(err)
	}
	par, err := rt.RunParallel(pushedCfg(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if pool.phases <= phases || len(pool.jobs) != 3 || !reflect.DeepEqual(seq.Metrics, par.Metrics) || !settled(before+3) {
		t.Fatalf("the run after a failed one diverged or restarted the workers")
	}

	// Close stops the workers; closing or shutting down again is a no-op;
	// the next parallel run starts fresh ones.
	rt.Close()
	if len(pool.jobs) != 0 || !settled(before) {
		t.Fatalf("Close left %d goroutines over %d", runtime.NumGoroutine()-before, before)
	}
	rt.Close()
	pool.shutdown()
	if _, err := rt.RunParallel(pushedCfg(), 2); err != nil {
		t.Fatal(err)
	}
	if rt.pool != pool || len(pool.jobs) != 2 || !settled(before+2) {
		t.Fatalf("reuse after Close left %d goroutines over %d", runtime.NumGoroutine()-before, before)
	}
	rt.Close()
	if !settled(before) {
		t.Fatalf("final Close left %d goroutines over %d", runtime.NumGoroutine()-before, before)
	}
}

// TestParallelLinkFilterRunsSequentialRounds pins what replaced the
// stitched path: a parallel run whose fault is a LinkFilter still
// reports as the parallel engine and still equals the sequential run,
// but executes its rounds on the caller — it starts no pool, and on a
// Runtime that has one it dispatches no phase.
func TestParallelLinkFilterRunsSequentialRounds(t *testing.T) {
	cfg := func(fault LinkFault, tr obs.RunTracer) Config {
		ps, _ := buildFlood(40, 10, 5)
		return Config{Protocols: ps, Fault: fault, MaxRounds: 40, Tracer: tr}
	}
	seq, err := Run(cfg(allocDelayFilter{}, nil))
	if err != nil {
		t.Fatal(err)
	}

	rt := NewRuntime()
	defer rt.Close()
	var log tracerLog
	par, err := rt.RunParallel(cfg(allocDelayFilter{}, &log), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Metrics, par.Metrics) || !reflect.DeepEqual(seq.HaltedAt, par.HaltedAt) {
		t.Fatalf("link-filter parallel run diverged from sequential")
	}
	if !reflect.DeepEqual(log.engines, []obs.Engine{obs.EngineParallel}) {
		t.Fatalf("reported engines %v, want parallel", log.engines)
	}
	if rt.pool != nil {
		t.Fatal("a link-filter parallel run started a worker pool")
	}

	if _, err := rt.RunParallel(cfg(nil, nil), 2); err != nil {
		t.Fatal(err)
	}
	phases := rt.pool.phases
	if phases == 0 {
		t.Fatal("a filter-free parallel run dispatched no phase")
	}
	if _, err := rt.RunParallel(cfg(allocDelayFilter{}, nil), 2); err != nil {
		t.Fatal(err)
	}
	if rt.pool.phases != phases {
		t.Fatalf("a link-filter parallel run dispatched %d pool phases", rt.pool.phases-phases)
	}
	// Config constraints still apply.
	single := cfg(allocDelayFilter{}, nil)
	single.SinglePort = true
	if _, err := rt.RunParallel(single, 2); err == nil {
		t.Fatal("single-port parallel run accepted")
	}
}
