package singleport

import (
	"testing"

	"lineartime/internal/bitset"
	"lineartime/internal/consensus"
	"lineartime/internal/crash"
	"lineartime/internal/sim"
)

func TestSPVectorConsensusAgreement(t *testing.T) {
	n, tt := 50, 10
	top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*SPVectorConsensus, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		in := bitset.New(n)
		in.Add(i)
		in.Add(n - 1)
		ms[i] = NewSPVectorConsensus(i, top, in)
		ps[i] = ms[i]
	}
	_, err = sim.Run(sim.Config{
		Protocols:  ps,
		MaxRounds:  top.Schedule.SP + 5,
		SinglePort: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var agreed *bitset.Set
	for i, m := range ms {
		set, ok := m.Decision()
		if !ok {
			t.Fatalf("node %d undecided", i)
		}
		if !set.Contains(n - 1) {
			t.Fatalf("node %d misses the unanimously-seeded instance", i)
		}
		if agreed == nil {
			agreed = set
		} else if !agreed.Equal(set) {
			t.Fatal("vector decisions differ")
		}
	}
	// Little-node seeds flood through the little overlay.
	for j := 0; j < top.L; j++ {
		if !agreed.Contains(j) {
			t.Fatalf("little instance %d missing", j)
		}
	}
}

func runSPCheckpointing(t *testing.T, n, tt int, adv sim.LinkFault, seed uint64) ([]*SPCheckpointing, *sim.Result) {
	t.Helper()
	top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewGossipSchedule(top, seed)
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*SPCheckpointing, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ms[i] = NewSPCheckpointing(i, sched)
		ps[i] = ms[i]
	}
	res, err := sim.Run(sim.Config{
		Protocols:  ps,
		Fault:      adv,
		MaxRounds:  ms[0].ScheduleLength() + 5,
		SinglePort: true,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return ms, res
}

func TestSPCheckpointingNoFaults(t *testing.T) {
	n, tt := 50, 10
	ms, res := runSPCheckpointing(t, n, tt, nil, 1)
	var agreed *bitset.Set
	for i, m := range ms {
		if res.Crashed.Contains(i) {
			continue
		}
		set, ok := m.Decision()
		if !ok {
			t.Fatalf("node %d undecided", i)
		}
		if set.Count() != n {
			t.Fatalf("node %d extant set has %d members, want %d", i, set.Count(), n)
		}
		if agreed == nil {
			agreed = set
		} else if !agreed.Equal(set) {
			t.Fatal("extant sets differ")
		}
	}
}

func TestSPCheckpointingSilentCrashes(t *testing.T) {
	n, tt := 50, 10
	var events []crash.Event
	silent := map[int]bool{}
	for i := 0; i < tt; i++ {
		v := 3 + 4*i
		events = append(events, crash.Event{Node: v, Round: 0, Keep: 0})
		silent[v] = true
	}
	ms, res := runSPCheckpointing(t, n, tt, crash.NewSchedule(events), 2)
	var agreed *bitset.Set
	for i, m := range ms {
		if res.Crashed.Contains(i) {
			continue
		}
		set, ok := m.Decision()
		if !ok {
			t.Fatalf("node %d undecided", i)
		}
		for j := 0; j < n; j++ {
			if silent[j] && set.Contains(j) {
				t.Fatalf("node %d includes silently-crashed %d", i, j)
			}
			if !res.Crashed.Contains(j) && !set.Contains(j) {
				t.Fatalf("node %d misses operational %d", i, j)
			}
		}
		if agreed == nil {
			agreed = set
		} else if !agreed.Equal(set) {
			t.Fatal("extant sets differ under crashes")
		}
	}
}

func TestSPCheckpointingRandomCrashes(t *testing.T) {
	for seed := uint64(0); seed < 2; seed++ {
		n, tt := 40, 8
		ms, res := runSPCheckpointing(t, n, tt, crash.NewRandom(n, tt, 200, seed), seed+9)
		var agreed *bitset.Set
		for i, m := range ms {
			if res.Crashed.Contains(i) {
				continue
			}
			set, ok := m.Decision()
			if !ok {
				t.Fatalf("seed %d: node %d undecided", seed, i)
			}
			for j := 0; j < n; j++ {
				if !res.Crashed.Contains(j) && !set.Contains(j) {
					t.Fatalf("seed %d: node %d misses operational %d", seed, i, j)
				}
			}
			if agreed == nil {
				agreed = set
			} else if !agreed.Equal(set) {
				t.Fatalf("seed %d: disagreement", seed)
			}
		}
	}
}
