package sim_test

import (
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
// tests: the engine result, the machines, the rounds a machine was
// stepped in (not recorded on the pool, whose workers step machines
// concurrently), and the executed and simulated round counts.
type gossipOutcome struct {
	res                 *sim.Result
	ms                  []*gossip.Gossip
	stepped             []bool
	executed, simulated int
}

// runGossipWay runs a fresh gossip system over top one way: "hidden"
// (behind the promise auditor, every round executes), "sequential",
// "observed" (sequential with an event log) or "pool". Machines listed in
// haltAt halt after their Deliver of that round.
func runGossipWay(t *testing.T, top *consensus.Topology, way string, fault func() sim.LinkFault, haltAt map[sim.NodeID]int) gossipOutcome {
	t.Helper()
	ps := make([]sim.Protocol, top.N)
	ms := make([]*gossip.Gossip, top.N)
	maxRounds := top.Schedule.Gossip + 8
	var stepped []bool
	if way != "pool" {
		stepped = make([]bool, maxRounds)
	}
	for i := range ps {
		ms[i] = gossip.New(i, top, gossip.Rumor(7000+i))
		h, ok := haltAt[i]
		if !ok {
			h = -1
		}
		ps[i] = &probe{Sleeper: ms[i], haltAt: h, stepped: stepped}
	}
	check := func() error { return nil }
	if way == "hidden" {
		ps, check = simtest.Hide(ps)
	}
	spans := obs.NewSpanTracer()
	cfg := sim.Config{Protocols: ps, Fault: fault(), MaxRounds: maxRounds, Tracer: spans,
		PartLabeler: func(r int) string { return top.Schedule.GossipPart(r) }}
	if way == "observed" {
		cfg.Observer = &simtest.EventLog{}
	}
	rt := sim.NewRuntime()
	defer rt.Close()
	var res *sim.Result
	var err error
	if way == "pool" {
		res, err = rt.RunParallel(cfg, 3)
	} else {
		res, err = rt.Run(cfg)
	}
	if err != nil {
		t.Fatalf("%s: %v", way, err)
	}
	if err := check(); err != nil {
		t.Fatalf("%s: broken promise: %v", way, err)
	}
	tr := spans.Trace()
	return gossipOutcome{res: res.Clone(), ms: ms, stepped: stepped, executed: tr.RoundsExecuted, simulated: tr.Rounds}
}

// TestRepeatSkipPreconditions runs a gossip system, whose local probing
// repeats its traffic round after round, through the cases the steady
// fast-forward must get right, each against the every-round run: a
// crash in the round before a span (the victim sent a prefix there and
// sends nothing after), a halt in that round, a declared crash inside a
// span (the span ends before it), an Observer and a link filter (no
// steady round skipped). Results — metrics with their per-round and
// per-part series, crash set, halting rounds — and every node's extant
// set must match.
func TestRepeatSkipPreconditions(t *testing.T) {
	const n, tt, victim = 90, 12, 3
	top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	none := func() sim.LinkFault { return nil }
	base := runGossipWay(t, top, "sequential", none, nil)
	t.Logf("fault-free: executed %d of %d rounds", base.executed, base.simulated)
	if base.executed*2 > base.simulated {
		t.Fatalf("fault-free gossip executed %d of %d rounds; the steady skip should halve them", base.executed, base.simulated)
	}
	// probing reports whether round r is a local-probing round that
	// repeats the one before: no quiet span covers it, so only a steady
	// span can skip it.
	probing := func(r int) bool {
		_, _, off := top.Schedule.GossipAt(r)
		return r < top.Schedule.Gossip && off >= 3
	}
	// p executes and opens a steady span of at least two rounds.
	p := -1
	for r := 0; r+2 < base.simulated; r++ {
		if base.stepped[r] && !base.stepped[r+1] && !base.stepped[r+2] && probing(r+1) && probing(r+2) {
			p = r
			break
		}
	}
	if p < 0 {
		t.Fatal("no steady span of two rounds in the fault-free run")
	}
	schedule := func(round int) func() sim.LinkFault {
		return func() sim.LinkFault { return crash.NewSchedule([]crash.Event{{Node: victim, Round: round, Keep: 1}}) }
	}
	for _, c := range []struct {
		name     string
		fault    func() sim.LinkFault
		haltAt   map[sim.NodeID]int
		mustStep int  // a round that has to execute, or −1
		noSteady bool // no steady round may be skipped
	}{
		{name: "crash at r-1", fault: schedule(p), mustStep: p + 1},
		{name: "halt at r-1", fault: none, haltAt: map[sim.NodeID]int{victim: p}, mustStep: p + 1},
		{name: "declared crash inside a span", fault: schedule(p + 2), mustStep: p + 2},
		{name: "observer installed", fault: none, mustStep: -1, noSteady: true},
		{name: "link filter", fault: func() sim.LinkFault { return link.NewOmission(0.02, 9) }, mustStep: -1, noSteady: true},
	} {
		want := runGossipWay(t, top, "hidden", c.fault, c.haltAt)
		ways := []string{"sequential", "pool"}
		if c.name == "observer installed" {
			ways = []string{"observed"}
		}
		for _, way := range ways {
			tag := fmt.Sprintf("%s (%s)", c.name, way)
			got := runGossipWay(t, top, way, c.fault, c.haltAt)
			if !reflect.DeepEqual(want.res, got.res) {
				t.Fatalf("%s: results diverged:\nevery round %+v\n   skipping %+v", tag, want.res, got.res)
			}
			for i := range want.ms {
				w, g := want.ms[i].Extant(), got.ms[i].Extant()
				if w.Count() != g.Count() || !w.Known().Equal(g.Known()) {
					t.Fatalf("%s: node %d extant set diverged", tag, i)
				}
			}
			for r := 0; c.noSteady && way != "pool" && r < got.simulated; r++ {
				if probing(r) && !got.stepped[r] {
					t.Fatalf("%s: steady round %d stepped no machine", tag, r)
				}
			}
			if way != "pool" && c.mustStep >= 0 && !got.stepped[c.mustStep] {
				t.Fatalf("%s: round %d stepped no machine", tag, c.mustStep)
			}
		}
	}
}
