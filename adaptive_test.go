package lineartime

import (
	"testing"

	"lineartime/internal/consensus"
	"lineartime/internal/crash"
	"lineartime/internal/gossip"
	"lineartime/internal/sim"
)

// The adaptive adversary (crash the busiest sender, repeatedly) is the
// harshest strategy the crash model admits: it decapitates whatever
// communication backbone the protocol relies on. These tests run the
// full stacks against it.

func TestFewCrashesUnderAdaptiveAdversary(t *testing.T) {
	n, tt := 80, 16
	top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	inputs := boolInputs(n, func(i int) bool { return i%2 == 0 })
	ms := make([]*consensus.FewCrashes, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ms[i] = new(consensus.FewCrashes)
		ms[i].Init(i, top, inputs[i])
		ps[i] = ms[i]
	}
	res, err := sim.Run(sim.Config{
		Protocols: ps,
		Fault:     crash.NewAdaptive(tt, 3),
		MaxRounds: top.Schedule.Few + 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed.Count() == 0 {
		t.Fatal("adaptive adversary crashed nobody")
	}
	var agreed *bool
	for i, m := range ms {
		if res.Crashed.Contains(i) {
			continue
		}
		v, ok := m.Decision()
		if !ok {
			t.Fatalf("node %d undecided under adaptive attack", i)
		}
		if agreed == nil {
			agreed = &v
		} else if *agreed != v {
			t.Fatal("disagreement under adaptive attack")
		}
	}
}

func TestGossipUnderAdaptiveAdversary(t *testing.T) {
	n, tt := 60, 12
	top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*gossip.Gossip, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ms[i] = gossip.New(i, top, gossip.Rumor(500+i))
		ps[i] = ms[i]
	}
	res, err := sim.Run(sim.Config{
		Protocols: ps,
		Fault:     crash.NewAdaptive(tt, 2),
		MaxRounds: top.Schedule.Gossip + 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		if res.Crashed.Contains(i) {
			continue
		}
		for j := 0; j < n; j++ {
			if !res.Crashed.Contains(j) && !m.Extant().Present(j) {
				t.Fatalf("node %d misses operational %d under adaptive attack", i, j)
			}
		}
	}
}
