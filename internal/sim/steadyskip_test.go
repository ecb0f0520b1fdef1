package sim_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"lineartime/internal/consensus"
	"lineartime/internal/crash"
	"lineartime/internal/gossip"
	"lineartime/internal/link"
	"lineartime/internal/obs"
	"lineartime/internal/sim"
	"lineartime/internal/sim/simtest"
)

// gossipOutcome is one run of a gossip system for the steady-skip
// tests: the engine result and error, the machines, the rounds a
// machine was stepped in, and the executed and simulated round counts.
type gossipOutcome struct {
	res                 *sim.Result
	err                 error
	ms                  []*gossip.Gossip
	stepped             []bool
	executed, simulated int
}

// gossipCase shapes one run of runGossipWay: the fault, machines that
// halt after their Deliver of a given round, a node that answers
// QuietUntil with "awake" in round wake (if wake > 0), and a round
// budget other than the schedule's (if maxRounds > 0).
type gossipCase struct {
	fault     func() sim.LinkFault
	haltAt    map[sim.NodeID]int
	wake      int
	maxRounds int
}

// runGossipWay runs a fresh gossip system over top one way: "hidden"
// (behind the promise auditor, every round executes), "sequential" or
// "observed" (sequential with an event log).
func runGossipWay(t *testing.T, top *consensus.Topology, way string, c gossipCase) gossipOutcome {
	t.Helper()
	ps := make([]sim.Protocol, top.N)
	ms := make([]*gossip.Gossip, top.N)
	maxRounds := top.Schedule.Gossip + 8
	if c.maxRounds > 0 {
		maxRounds = c.maxRounds
	}
	stepped := make([]bool, maxRounds)
	for i := range ps {
		ms[i] = gossip.New(i, top, gossip.Rumor(7000+i))
		h, ok := c.haltAt[i]
		if !ok {
			h = -1
		}
		p := &probe{Sleeper: ms[i], haltAt: h, stepped: stepped}
		if i == 0 {
			p.wake = c.wake
		}
		ps[i] = p
	}
	check := func() error { return nil }
	if way == "hidden" {
		ps, check = simtest.Hide(ps)
	}
	fault := c.fault
	if fault == nil {
		fault = func() sim.LinkFault { return nil }
	}
	spans := obs.NewSpanTracer()
	cfg := sim.Config{Protocols: ps, Fault: fault(), MaxRounds: maxRounds, Tracer: spans,
		PartLabeler: func(r int) string { return top.Schedule.GossipPart(r) }}
	if way == "observed" {
		cfg.Observer = &simtest.EventLog{}
	}
	res, err := sim.NewRuntime().Run(cfg)
	if err != nil && (c.maxRounds == 0 || !errors.Is(err, sim.ErrNoTermination)) {
		t.Fatalf("%s: %v", way, err)
	}
	if err := check(); err != nil {
		t.Fatalf("%s: broken promise: %v", way, err)
	}
	tr := spans.Trace()
	if res != nil {
		res = res.Clone()
	}
	return gossipOutcome{res: res, err: err, ms: ms, stepped: stepped, executed: tr.RoundsExecuted, simulated: tr.Rounds}
}

// TestRepeatSkipPreconditions runs a gossip system, whose local probing
// repeats its traffic round after round and phase after phase, through
// the cases the steady fast-forward must get right, each against the
// every-round run: a crash in the template round (the victim sent a
// prefix there and sends nothing after), a halt in that round, a
// declared crash inside a span (the span ends before it), a declared
// crash applied in passing in the quiet rounds between two phases (the
// template is dropped), a silent round executed between the template
// and the span (nothing repeats it), a span cut by MaxRounds, an
// Observer and a link filter (no steady round skipped). Results —
// metrics with their per-round and per-part series, crash set, halting
// rounds — and every node's extant set must match. The fault-free run
// must carry a span over the quiet rounds between two phases without
// stepping them.
func TestRepeatSkipPreconditions(t *testing.T) {
	const n, tt, victim = 90, 12, 3
	top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	base := runGossipWay(t, top, "sequential", gossipCase{})
	t.Logf("fault-free: executed %d of %d rounds", base.executed, base.simulated)
	if base.executed*4 > base.simulated {
		t.Fatalf("fault-free gossip executed %d of %d rounds; the steady skip should quarter them", base.executed, base.simulated)
	}
	// probing reports whether round r is a local-probing round that
	// repeats the one before: no quiet span covers it, so only a steady
	// span can skip it.
	s := &top.Schedule
	probing := func(r int) bool {
		_, _, off := s.GossipAt(r)
		return r < s.Gossip && off >= 3
	}
	// p executes and opens a steady span of at least two rounds.
	p := -1
	for r := 0; r+2 < base.simulated; r++ {
		if base.stepped[r] && !base.stepped[r+1] && !base.stepped[r+2] && probing(r+1) && probing(r+2) {
			p = r
			break
		}
	}
	// g opens the quiet rounds of a Part 1 phase that a span crosses: the
	// probing round before it, its inquiry and response rounds and its
	// first probing round all step no machine.
	g := -1
	for r := s.GossipPhaseLen; r+2 < s.Gossip/2; r += s.GossipPhaseLen {
		if !base.stepped[r-1] && !base.stepped[r] && !base.stepped[r+1] && !base.stepped[r+2] {
			g = r
			break
		}
	}
	if p < 0 || g < 0 {
		t.Fatalf("the fault-free run has no steady span of two rounds (%d) or none across a phase's quiet rounds (%d)", p, g)
	}
	little := -1
	for id := 0; id < n && little < 0; id++ {
		if top.IsLittle(id) {
			little = id
		}
	}
	schedule := func(node, round int) func() sim.LinkFault {
		return func() sim.LinkFault { return crash.NewSchedule([]crash.Event{{Node: node, Round: round, Keep: 1}}) }
	}
	for _, c := range []struct {
		name string
		gossipCase
		mustStep []int // rounds that have to execute
		noSteady bool  // no steady round may be skipped
	}{
		{name: "crash at r-1", gossipCase: gossipCase{fault: schedule(victim, p)}, mustStep: []int{p + 1}},
		{name: "halt at r-1", gossipCase: gossipCase{haltAt: map[sim.NodeID]int{victim: p}}, mustStep: []int{p + 1}},
		{name: "declared crash inside a span", gossipCase: gossipCase{fault: schedule(victim, p+2)}, mustStep: []int{p + 2}},
		{name: "declared crash in the quiet gap", gossipCase: gossipCase{fault: schedule(little, g)}, mustStep: []int{g + 2}},
		{name: "silent round executed in the gap", gossipCase: gossipCase{wake: g}, mustStep: []int{g, g + 2}},
		{name: "span cut by MaxRounds", gossipCase: gossipCase{maxRounds: g + 3}},
		{name: "observer installed", noSteady: true},
		{name: "link filter", gossipCase: gossipCase{fault: func() sim.LinkFault { return link.NewOmission(0.02, 9) }}, noSteady: true},
	} {
		want := runGossipWay(t, top, "hidden", c.gossipCase)
		ways := []string{"sequential"}
		if c.name == "observer installed" {
			ways = []string{"observed"}
		}
		for _, way := range ways {
			tag := fmt.Sprintf("%s (%s)", c.name, way)
			got := runGossipWay(t, top, way, c.gossipCase)
			if (want.err == nil) != (got.err == nil) || !reflect.DeepEqual(want.res, got.res) {
				t.Fatalf("%s: results diverged:\nevery round %+v (%v)\n   skipping %+v (%v)", tag, want.res, want.err, got.res, got.err)
			}
			for i := range want.ms {
				w, g := want.ms[i].Extant(), got.ms[i].Extant()
				if w.Count() != g.Count() || !w.Known().Equal(g.Known()) {
					t.Fatalf("%s: node %d extant set diverged", tag, i)
				}
			}
			for r := 0; c.noSteady && r < got.simulated; r++ {
				if probing(r) && !got.stepped[r] {
					t.Fatalf("%s: steady round %d stepped no machine", tag, r)
				}
			}
			for _, r := range c.mustStep {
				if !got.stepped[r] {
					t.Fatalf("%s: round %d stepped no machine", tag, r)
				}
			}
			if c.maxRounds > 0 && (got.stepped[c.maxRounds-1] || got.simulated != c.maxRounds) {
				t.Fatalf("%s: stepped the last round %d (simulated %d): the span should have run to MaxRounds", tag, c.maxRounds-1, got.simulated)
			}
		}
	}
}
