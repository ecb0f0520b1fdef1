package sim_test

import (
	"fmt"
	"reflect"
	"slices"
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
		ms[i] = new(consensus.FewCrashes)
		ms[i].Init(i, top, (seed>>(i%64))&1 == 1)
		ps[i] = ms[i]
	}
	return ps, ms
}

// quietRun tunes checkQuietSkip: haltAt halts chosen machines early
// (node → round), and maxRounds, when positive, replaces the default
// budget of the schedule's length + 8.
type quietRun struct {
	haltAt    map[sim.NodeID]int
	maxRounds int
}

// probe wraps a Few-Crashes or gossip machine, staying a Sleeper: it
// marks the rounds the engine steps it in (when stepped is non-nil),
// adds the length of each inbox it is handed to received and counts in
// heard the non-empty ones it ignores (when received is non-nil), when
// haltAt ≥ 0 halts after its Deliver of round haltAt, and when wake > 0
// answers QuietUntil(wake) with "awake".
type probe struct {
	sim.Sleeper
	haltAt   int
	wake     int
	halted   bool
	stepped  []bool
	received []int
	heard    *int
}

func (p *probe) Send(round int) []sim.Envelope {
	if p.stepped != nil {
		p.stepped[round] = true
	}
	return p.Sleeper.Send(round)
}

func (p *probe) Deliver(round int, inbox []sim.Envelope) {
	if p.received != nil {
		p.received[round] += len(inbox)
		if len(inbox) > 0 && p.Sleeper.Ignores(round) {
			*p.heard++
		}
	}
	p.Sleeper.Deliver(round, inbox)
	p.halted = p.haltAt >= 0 && round >= p.haltAt
}

func (p *probe) Halted() bool { return p.halted || p.Sleeper.Halted() }

func (p *probe) QuietUntil(round int) int {
	if p.wake > 0 && round == p.wake {
		return round
	}
	return p.clamp(p.Sleeper.QuietUntil(round))
}

func (p *probe) RepeatUntil(round, last int) int {
	return p.clamp(p.Sleeper.RepeatUntil(round, last))
}

// clamp ends a promise at the early halting round, whose Deliver halts.
func (p *probe) clamp(w int) int {
	if p.haltAt < 0 || w < p.haltAt {
		return w
	}
	return p.haltAt
}

// checkQuietSkip runs one Few-Crashes-Consensus system three ways —
// hidden behind the promise auditor so every round executes, and with
// its Sleepers visible observed (quiet spans only) and unobserved
// (quiet and steady spans) — and
// demands identical Results, observer streams and decisions, and no
// broken promise. It returns the observed visible run's result and the
// rounds that run stepped a machine in.
func checkQuietSkip(t *testing.T, n, tt int, seed uint64, fault func() sim.LinkFault, q quietRun) (*sim.Result, []bool) {
	t.Helper()
	top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: seed})
	if err != nil {
		t.Skip(err)
	}
	type outcome struct {
		res     *sim.Result
		err     error
		events  []simtest.Event
		ms      []*consensus.FewCrashes
		stepped []bool
	}
	run := func(hide, observed bool) (outcome, func() error) {
		ps, ms := fewCrashesSystem(top, seed)
		maxRounds := top.Schedule.Few + 8
		if q.maxRounds > 0 {
			maxRounds = q.maxRounds
		}
		var stepped []bool
		if !hide && observed {
			stepped = make([]bool, maxRounds)
		}
		for i, p := range ps {
			haltAt, ok := q.haltAt[i]
			if !ok {
				haltAt = -1
			}
			ps[i] = &probe{Sleeper: p.(sim.Sleeper), haltAt: haltAt, stepped: stepped}
		}
		check := func() error { return nil }
		if hide {
			ps, check = simtest.Hide(ps)
		}
		cfg := sim.Config{Protocols: ps, Fault: fault(), MaxRounds: maxRounds}
		log := &simtest.EventLog{}
		if observed {
			cfg.Observer = log
		}
		res, err := sim.Run(cfg)
		return outcome{res: res, err: err, events: log.Events, ms: ms, stepped: stepped}, check
	}
	want, check := run(true, true)
	if err := check(); err != nil {
		t.Fatalf("n=%d t=%d seed=%d: %v", n, tt, seed, err)
	}
	var visible outcome
	for _, way := range []struct {
		name     string
		observed bool
	}{{"observed", true}, {"sequential", false}} {
		got, _ := run(false, way.observed)
		tag := fmt.Sprintf("n=%d t=%d seed=%d %s", n, tt, seed, way.name)
		if (want.err == nil) != (got.err == nil) || !reflect.DeepEqual(want.res, got.res) {
			t.Fatalf("%s: results diverged:\nevery round %+v (%v)\n   skipping %+v (%v)", tag, want.res, want.err, got.res, got.err)
		}
		if way.observed && !slices.Equal(want.events, got.events) {
			t.Fatalf("%s: observer streams diverged (%d vs %d events)", tag, len(want.events), len(got.events))
		}
		for i := range want.ms {
			wv, wok := want.ms[i].Decision()
			gv, gok := got.ms[i].Decision()
			if wv != gv || wok != gok {
				t.Fatalf("%s: node %d decided (%v, %v) skipping, (%v, %v) round by round", tag, i, gv, gok, wv, wok)
			}
		}
		if way.observed {
			visible = got
		}
	}
	return visible.res, visible.stepped
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
	// Two cases of TestQuietSkipAppliesCrashesInPassing: a keep-prefix
	// crash inside AEA's silent Part 1, and every node crashing mid-span.
	f.Add(uint8(55), uint8(12), uint64(1), []byte{7, 30, 2})
	wipeout := make([]byte, 0, 60)
	for i := 0; i < 20; i++ {
		wipeout = append(wipeout, byte(i), byte(10+i%7), byte(i%6))
	}
	f.Add(uint8(15), uint8(4), uint64(1), wipeout)
	// Repeat spans: AEA's Part 2 probes in rounds 59–66 at n=60, t=12;
	// a keep-prefix crash inside a span, and one in the round before a
	// span followed by another inside it.
	f.Add(uint8(55), uint8(12), uint64(3), []byte{4, 61, 2})
	f.Add(uint8(55), uint8(12), uint64(9), []byte{2, 60, 3, 9, 63, 0})
	f.Fuzz(func(t *testing.T, nb, tb uint8, seed uint64, crashes []byte) {
		n := 5 + int(nb)%60
		tt := int(tb) % (n/5 + 1)
		events := crashEventsFrom(n, crashes)
		checkQuietSkip(t, n, tt, seed, func() sim.LinkFault { return crash.NewSchedule(events) }, quietRun{})
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
		ps, _ := fewCrashesSystem(top, 5)
		spans := obs.NewSpanTracer()
		res, err := sim.NewRuntime().Run(sim.Config{Protocols: ps, Fault: c.fault, MaxRounds: top.Schedule.Few + 8, Tracer: spans})
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

// overDeclared adds events to a schedule's declaration that its
// FilterSend never confirms: a node outside [0, n), or one the schedule
// does not crash. FilterSend alone decides a crash.
type overDeclared struct {
	*crash.Schedule
	extra []sim.CrashEvent
}

func (o overDeclared) CrashEvents() []sim.CrashEvent {
	return append(slices.Clone(o.Schedule.CrashEvents()), o.extra...)
}

// TestQuietSkipAppliesCrashesInPassing: a declared crash round inside a
// quiet span is applied without stepping a machine, and the run is
// still the every-round run — Results, observer streams and decisions
// on both engines (checkQuietSkip). AEA's Part 1 is budgeted 5t−1
// rounds and floods in two, so rounds 3 to 5t−2 are silent.
func TestQuietSkipAppliesCrashesInPassing(t *testing.T) {
	all := make([]crash.Event, 20)
	for i := range all {
		all[i] = crash.Event{Node: i, Round: 10 + i%7, Keep: i%6 - 1}
	}
	for _, c := range []struct {
		name   string
		n, t   int
		events []crash.Event
		extra  []sim.CrashEvent
		q      quietRun
		// passed are declared crash rounds no machine may be stepped in;
		// rounds, when positive, is the run's required length.
		passed []int
		rounds int
	}{
		{name: "keep-prefix crash in AEA Part 1", n: 60, t: 12,
			events: []crash.Event{{Node: 7, Round: 30, Keep: 1}}, passed: []int{30}},
		{name: "three crash rounds in one span", n: 60, t: 12,
			events: []crash.Event{{Node: 3, Round: 10, Keep: -1}, {Node: 12, Round: 20, Keep: 2}, {Node: 11, Round: 20, Keep: 0}, {Node: 40, Round: 45, Keep: 1}},
			passed: []int{10, 20, 45}},
		{name: "victim already halted", n: 60, t: 12,
			events: []crash.Event{{Node: 9, Round: 30, Keep: -1}, {Node: 10, Round: 30, Keep: 1}},
			q:      quietRun{haltAt: map[sim.NodeID]int{9: 1}}, passed: []int{30}},
		{name: "out-of-range and unconfirmed events", n: 60, t: 12,
			events: []crash.Event{{Node: 5, Round: 25, Keep: 1}, {Node: 63, Round: 20, Keep: -1}, {Node: 6, Round: -4, Keep: 0}},
			extra:  []sim.CrashEvent{{Node: -1, Round: 15, Keep: -1}, {Node: 60, Round: 15, Keep: 0}, {Node: 8, Round: 22, Keep: -1}},
			passed: []int{15, 20, 22, 25}},
		{name: "every node crashes mid-span", n: 20, t: 4, events: all, passed: []int{10, 11, 12, 13, 14, 15, 16}, rounds: 17},
		{name: "events at and past MaxRounds", n: 60, t: 12,
			events: []crash.Event{{Node: 1, Round: 39, Keep: -1}, {Node: 2, Round: 40, Keep: -1}, {Node: 3, Round: 41, Keep: 1}, {Node: 4, Round: 500, Keep: 0}},
			q:      quietRun{maxRounds: 40}, passed: []int{39}},
	} {
		fault := func() sim.LinkFault {
			s := crash.NewSchedule(c.events)
			if c.extra == nil {
				return s
			}
			return overDeclared{Schedule: s, extra: c.extra}
		}
		res, stepped := checkQuietSkip(t, c.n, c.t, 1, fault, c.q)
		for _, r := range c.passed {
			if stepped[r] {
				t.Fatalf("%s: crash round %d stepped machines; it lies in a quiet span", c.name, r)
			}
		}
		if c.rounds > 0 && (res == nil || res.Metrics.Rounds != c.rounds) {
			t.Fatalf("%s: run result %+v, want a run of %d rounds", c.name, res, c.rounds)
		}
	}
}

// TestUnreadRoundsAreNotPlaced: on the serve-cold shape (n = 256,
// t = 50, 50 random crashes below round 64) a machine that promises to
// ignore its inbox (Sleeper.Ignores) is handed none, while hidden behind
// the auditor it is handed every inbox. With fault seed 7 the run's
// largest round — SCV's Part 1 broadcast to nodes that have all decided
// — then hands out no inbox at all; with fault seed 1000 one node is
// still undecided there and reads its inbox. Hidden and visible runs end
// in the same Result and the same decisions.
func TestUnreadRoundsAreNotPlaced(t *testing.T) {
	const n, tt = 256, 50
	top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: 0x5eed0001})
	if err != nil {
		t.Fatal(err)
	}
	maxRounds := top.Schedule.Few + 8
	run := func(hide bool, faultSeed uint64) (*sim.Result, []int, int, []*consensus.FewCrashes) {
		ps, ms := fewCrashesSystem(top, 0x5eed0001)
		received, heard := make([]int, maxRounds), 0
		for i, p := range ps {
			ps[i] = &probe{Sleeper: p.(sim.Sleeper), haltAt: -1, received: received, heard: &heard}
		}
		if hide {
			ps, _ = simtest.Hide(ps)
		}
		res, err := sim.Run(sim.Config{Protocols: ps, Fault: crash.NewRandom(n, tt, 64, faultSeed), MaxRounds: maxRounds})
		if err != nil {
			t.Fatal(err)
		}
		return res, received, heard, ms
	}
	for _, c := range []struct {
		faultSeed uint64
		unplaced  bool // the busiest round hands out no inbox
	}{{7, true}, {1000, false}} {
		want, all, allHeard, wantMs := run(true, c.faultSeed)
		got, visible, heard, gotMs := run(false, c.faultSeed)
		tag := fmt.Sprintf("fault seed %d", c.faultSeed)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: results diverged:\nevery inbox %+v\n    visible %+v", tag, want.Metrics, got.Metrics)
		}
		for i := range wantMs {
			wv, wok := wantMs[i].Decision()
			if gv, gok := gotMs[i].Decision(); wv != gv || wok != gok {
				t.Fatalf("%s: node %d decided (%v, %v) visible, (%v, %v) with every inbox", tag, i, gv, gok, wv, wok)
			}
		}
		if heard != 0 || allHeard == 0 {
			t.Fatalf("%s: %d ignored inboxes handed out visible, %d hidden; want none visible", tag, heard, allHeard)
		}
		busiest := 0
		for r, msgs := range got.Metrics.PerRoundMessages {
			if msgs > got.Metrics.PerRoundMessages[busiest] {
				busiest = r
			}
		}
		t.Logf("%s: round %d: %d messages, %d delivered visible, %d hidden; %d ignored inboxes hidden",
			tag, busiest, got.Metrics.PerRoundMessages[busiest], visible[busiest], all[busiest], allHeard)
		if busiest < top.Schedule.AEA || all[busiest] == 0 || (visible[busiest] == 0) != c.unplaced {
			t.Fatalf("%s: busiest round %d (SCV starts at %d): %d delivered visible, %d hidden; want none visible: %v",
				tag, busiest, top.Schedule.AEA, visible[busiest], all[busiest], c.unplaced)
		}
	}
}
