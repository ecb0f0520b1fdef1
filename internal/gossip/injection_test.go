package gossip

import (
	"testing"

	"lineartime/internal/consensus"
	"lineartime/internal/crash"
)

// Phase-boundary failure injection: crashes timed to hit each block of
// the gossip schedule — inquiry rounds, response rounds, and specific
// probing rounds — exercising the survivedPrev gating and the
// mid-probing pause machinery at their exact trigger points.

func TestGossipCrashAtEveryBlockType(t *testing.T) {
	n, tt := 60, 12
	top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	phaseLen := top.Schedule.GossipPhaseLen

	cases := []struct {
		name  string
		round func(phase int) int
	}{
		{"inquiry-round", func(p int) int { return p * phaseLen }},
		{"response-round", func(p int) int { return p*phaseLen + 1 }},
		{"first-probing-round", func(p int) int { return p*phaseLen + 2 }},
		{"last-probing-round", func(p int) int { return (p+1)*phaseLen - 1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// One little victim per phase, mid-send (keep 1), timed at
			// the block under test.
			var events []crash.Event
			for p := 0; p < 4; p++ {
				events = append(events, crash.Event{
					Node:  p * 3, // little nodes (L = 60 here)
					Round: c.round(p),
					Keep:  1,
				})
			}
			ms, res := runGossip(t, n, tt, crash.NewSchedule(events), 8)
			checkGossip(t, ms, res, nil)
		})
	}
}

func TestGossipCrashStormInOnePhase(t *testing.T) {
	// The full crash budget lands inside a single phase's probing
	// block: survivors of that probing must still be enough to finish.
	n, tt := 60, 12
	top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	phaseLen, gamma := top.Schedule.GossipPhaseLen, top.Little.P.Gamma
	start := phaseLen + 2 // phase 1's probing block
	var events []crash.Event
	for i := 0; i < tt; i++ {
		events = append(events, crash.Event{
			Node:  2 * i,
			Round: start + i%gamma,
			Keep:  0,
		})
	}
	ms, res := runGossip(t, n, tt, crash.NewSchedule(events), 9)
	checkGossip(t, ms, res, nil)
	if res.Crashed.Count() != tt {
		t.Fatalf("crashed %d, want %d", res.Crashed.Count(), tt)
	}
}

func TestGossipPartBoundaryCrashes(t *testing.T) {
	// Crashes exactly at the Part 1 → Part 2 boundary, where extant
	// sets freeze and completion sets take over.
	n, tt := 60, 12
	top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	boundary := top.Schedule.Gossip / 2
	events := []crash.Event{
		{Node: 0, Round: boundary - 1, Keep: 1},
		{Node: 3, Round: boundary, Keep: 1},
		{Node: 6, Round: boundary + 1, Keep: 0},
	}
	ms, res := runGossip(t, n, tt, crash.NewSchedule(events), 10)
	checkGossip(t, ms, res, nil)
}
