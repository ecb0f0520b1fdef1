package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"lineartime/internal/consensus"
	"lineartime/internal/crash"
	"lineartime/internal/obs"
	"lineartime/internal/sim"
	"lineartime/internal/sim/simtest"
)

// fewCrashesSystem builds a fresh Few-Crashes-Consensus stack with
// inputs drawn from the seed's bits.
func fewCrashesSystem(top *consensus.Topology, seed uint64) ([]sim.Protocol, []*consensus.FewCrashes) {
	ps := make([]sim.Protocol, top.N)
	ms := make([]*consensus.FewCrashes, top.N)
	for i := range ps {
		ms[i] = consensus.NewFewCrashes(i, top, (seed>>(i%64))&1 == 1)
		ps[i] = ms[i]
	}
	return ps, ms
}

// checkQuietSkip runs one Few-Crashes-Consensus system three ways —
// Sleepers visible on the sequential engine, visible on the pool, and
// hidden behind the promise auditor so every round executes — and
// demands identical Results, observer streams and decisions, and no
// broken promise.
func checkQuietSkip(t *testing.T, n, tt int, seed uint64, fault func() sim.LinkFault) {
	t.Helper()
	top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: seed})
	if err != nil {
		t.Skip(err)
	}
	type outcome struct {
		res    *sim.Result
		err    error
		events []string
		ms     []*consensus.FewCrashes
	}
	run := func(hide, parallel bool) (outcome, func() error) {
		ps, ms := fewCrashesSystem(top, seed)
		check := func() error { return nil }
		if hide {
			ps, check = simtest.Hide(ps)
		}
		cfg := sim.Config{Protocols: ps, Fault: fault(), MaxRounds: ms[0].ScheduleLength() + 8}
		if parallel {
			res, err := sim.RunParallel(cfg, 3)
			return outcome{res: res, err: err, ms: ms}, check
		}
		log := &simtest.EventLog{}
		cfg.Observer = log
		res, err := sim.Run(cfg)
		return outcome{res: res, err: err, events: log.Events, ms: ms}, check
	}
	want, check := run(true, false)
	if err := check(); err != nil {
		t.Fatalf("n=%d t=%d seed=%d: %v", n, tt, seed, err)
	}
	for _, parallel := range []bool{false, true} {
		got, _ := run(false, parallel)
		tag := fmt.Sprintf("n=%d t=%d seed=%d parallel=%v", n, tt, seed, parallel)
		if (want.err == nil) != (got.err == nil) || !reflect.DeepEqual(want.res, got.res) {
			t.Fatalf("%s: results diverged:\nevery round %+v (%v)\n   skipping %+v (%v)", tag, want.res, want.err, got.res, got.err)
		}
		if !parallel && !reflect.DeepEqual(want.events, got.events) {
			t.Fatalf("%s: observer streams diverged (%d vs %d events)", tag, len(want.events), len(got.events))
		}
		for i := range want.ms {
			wv, wok := want.ms[i].Decision()
			gv, gok := got.ms[i].Decision()
			if wv != gv || wok != gok {
				t.Fatalf("%s: node %d decided (%v, %v) skipping, (%v, %v) round by round", tag, i, gv, gok, wv, wok)
			}
		}
	}
}

// crashEventsFrom decodes fuzz bytes into crash events, three bytes
// each: node, round, keep.
func crashEventsFrom(n int, data []byte) []crash.Event {
	var events []crash.Event
	for ; len(data) >= 3; data = data[3:] {
		events = append(events, crash.Event{Node: int(data[0]) % n, Round: int(data[1]), Keep: int(data[2]%6) - 1})
	}
	return events
}

// FuzzQuietSkip searches for a system size, input vector and crash
// schedule on which fast-forwarding over quiet rounds is observable.
func FuzzQuietSkip(f *testing.F) {
	f.Add(uint8(20), uint8(4), uint64(1), []byte{})
	f.Add(uint8(60), uint8(12), uint64(7), []byte{3, 0, 0, 9, 1, 2, 14, 40, 5, 2, 61, 1})
	f.Add(uint8(35), uint8(7), uint64(0xffff), []byte{0, 0, 0, 1, 1, 1, 2, 2, 2, 30, 90, 3})
	f.Fuzz(func(t *testing.T, nb, tb uint8, seed uint64, crashes []byte) {
		n := 5 + int(nb)%60
		tt := int(tb) % (n/5 + 1)
		events := crashEventsFrom(n, crashes)
		checkQuietSkip(t, n, tt, seed, func() sim.LinkFault { return crash.NewSchedule(events) })
	})
}

// TestQuietSkipOpaqueFault: an adaptive adversary declares no crash
// plan, so the engine cannot know which rounds it will strike in and
// executes every one of them.
func TestQuietSkipOpaqueFault(t *testing.T) {
	const n, tt = 40, 8
	top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		fault sim.LinkFault
		skips bool
	}{
		{"isolate", crash.NewIsolate(1, tt), false},
		{"schedule", crash.NewSchedule([]crash.Event{{Node: 1, Round: 3, Keep: 1}}), true},
	} {
		ps, ms := fewCrashesSystem(top, 5)
		spans := obs.NewSpanTracer()
		res, err := sim.NewRuntime().Run(sim.Config{Protocols: ps, Fault: c.fault, MaxRounds: ms[0].ScheduleLength() + 8, Tracer: spans})
		if err != nil {
			t.Fatal(err)
		}
		tr := spans.Trace()
		if tr.Rounds != res.Metrics.Rounds || (tr.RoundsExecuted < tr.Rounds) != c.skips {
			t.Fatalf("%s: executed %d of %d rounds (result: %d), skipping expected: %v",
				c.name, tr.RoundsExecuted, tr.Rounds, res.Metrics.Rounds, c.skips)
		}
	}
}
