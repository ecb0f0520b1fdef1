package gossip

import (
	"testing"

	"lineartime/internal/consensus"
	"lineartime/internal/sim"
)

// TestRepeatStaysInItsPart steps a fault-free gossip system round by
// round. Once its sets stand still, a little node promises to repeat a
// probing round of the previous phase across the quiet rounds between
// the two phases — but never a Part 1 probing round into Part 2, whose
// probes carry completion sets instead of extant sets, although every
// other condition of the promise holds there.
func TestRepeatStaysInItsPart(t *testing.T) {
	top, err := consensus.NewTopology(64, 12, consensus.TopologyOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := &top.Schedule
	ms := make([]*Gossip, top.N)
	ps := make([]sim.Protocol, top.N)
	for i := range ms {
		ms[i] = New(i, top, Rumor(500+i))
		ps[i] = ms[i]
	}
	st, err := sim.NewStepper(sim.Config{Protocols: ps, MaxRounds: s.Gossip + 4})
	if err != nil {
		t.Fatal(err)
	}
	stepped := 0
	stepTo := func(round int) {
		for ; stepped < round; stepped++ {
			if _, err := st.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	half, phase := s.Gossip/2, s.GossipPhaseLen
	// The last phase of Part 1 opens in round half−phase: ask from its
	// first probing round with the previous phase's last round as the
	// template.
	stepTo(half - phase)
	for id, g := range ms {
		if round := half - phase + 2; top.IsLittle(id) && g.RepeatUntil(round, round-3) != half {
			t.Fatalf("node %d: RepeatUntil(%d, %d) = %d, want the end of the instance %d", id, round, round-3, g.RepeatUntil(round, round-3), half)
		}
	}
	stepTo(half)
	for id, g := range ms {
		if !top.IsLittle(id) {
			continue
		}
		if g.moved || !g.survived(half) {
			t.Fatalf("node %d: moved %v, survived %v at the end of Part 1", id, g.moved, g.survived(half))
		}
		if round := half + 2; g.RepeatUntil(round, half-1) != round {
			t.Fatalf("node %d: RepeatUntil(%d, %d) = %d promises Part 1's probes into Part 2", id, round, half-1, g.RepeatUntil(round, half-1))
		}
	}
}
