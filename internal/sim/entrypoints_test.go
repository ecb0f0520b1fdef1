package sim

import (
	"reflect"
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

func (l *tracerLog) RoundsExecuted(int, int, int) { l.executed++ }

// TestEveryEntryPointReports pins the run tracer contract on all four
// ways into an engine — the two Runtime methods and the two
// package-level functions of the same names: a successful run reports
// exactly one setup stage, one rounds stage and one RunDone with its own
// engine (and one RoundsExecuted on the sequential engine, which can
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
}
