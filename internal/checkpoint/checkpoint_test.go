package checkpoint

import (
	"testing"

	"lineartime/internal/bitset"
	"lineartime/internal/consensus"
	"lineartime/internal/crash"
	"lineartime/internal/sim"
)

func runCheckpointing(t *testing.T, n, tt int, adv sim.LinkFault, seed uint64) ([]*Checkpointing, *sim.Result) {
	t.Helper()
	top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*Checkpointing, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ms[i] = New(i, top)
		ps[i] = ms[i]
	}
	res, err := sim.Run(sim.Config{Protocols: ps, Fault: adv, MaxRounds: top.Schedule.Checkpoint + 5})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return ms, res
}

// checkCheckpointing asserts the §2 conditions: silent-crashed nodes
// excluded, operational nodes included, and all decided sets equal.
func checkCheckpointing(t *testing.T, label string, ms []*Checkpointing, res *sim.Result, silent []int) {
	t.Helper()
	silentSet := make(map[int]bool, len(silent))
	for _, v := range silent {
		silentSet[v] = true
	}
	var agreed *bitset.Set
	for i, m := range ms {
		if res.Crashed.Contains(i) {
			continue
		}
		set, ok := m.Decision()
		if !ok {
			t.Fatalf("%s: node %d did not decide", label, i)
		}
		for j := range ms {
			if silentSet[j] && set.Contains(j) {
				t.Fatalf("%s: decided set of %d contains silent-crashed %d", label, i, j)
			}
			if !res.Crashed.Contains(j) && !set.Contains(j) {
				t.Fatalf("%s: decided set of %d misses operational %d", label, i, j)
			}
		}
		if agreed == nil {
			agreed = set
		} else if !agreed.Equal(set) {
			t.Fatalf("%s: decided sets differ between nodes", label)
		}
	}
	if agreed == nil {
		t.Fatalf("%s: everyone crashed", label)
	}
}

func TestCheckpointingNoFaults(t *testing.T) {
	ms, res := runCheckpointing(t, 60, 12, nil, 1)
	checkCheckpointing(t, "no-faults", ms, res, nil)
}

func TestCheckpointingSilentCrashes(t *testing.T) {
	n, tt := 60, 12
	var events []crash.Event
	var silent []int
	for i := 0; i < tt; i++ {
		v := 2 + 5*i
		events = append(events, crash.Event{Node: v, Round: 0, Keep: 0})
		silent = append(silent, v)
	}
	ms, res := runCheckpointing(t, n, tt, crash.NewSchedule(events), 2)
	checkCheckpointing(t, "silent", ms, res, silent)
}

func TestCheckpointingRandomCrashes(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		n, tt := 50, 10
		adv := crash.NewRandom(n, tt, 40, seed)
		ms, res := runCheckpointing(t, n, tt, adv, seed+11)
		// Silent victims unknown; check inclusion of operational nodes
		// and agreement only.
		checkCheckpointing(t, "random", ms, res, nil)
	}
}

func TestCheckpointingPerformanceShape(t *testing.T) {
	// Theorem 10: O(t + log n log t) rounds, O(n + t log n log t) messages.
	n, tt := 120, 24
	ms, res := runCheckpointing(t, n, tt, nil, 3)
	if res.Metrics.Rounds != ms[0].top.Schedule.Checkpoint {
		t.Fatalf("rounds = %d, want schedule %d", res.Metrics.Rounds, ms[0].top.Schedule.Checkpoint)
	}
	if res.Metrics.Rounds > 16*tt+500 {
		t.Fatalf("rounds = %d too large for O(t + log n log t)", res.Metrics.Rounds)
	}
}

func TestDirectBaseline(t *testing.T) {
	n, tt := 40, 8
	ms := make([]*Direct, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ms[i] = NewDirect(i, n, tt)
		ps[i] = ms[i]
	}
	adv := crash.NewSchedule([]crash.Event{
		{Node: 5, Round: 0, Keep: 0},
		{Node: 7, Round: 3, Keep: 2},
	})
	res, err := sim.Run(sim.Config{Protocols: ps, Fault: adv, MaxRounds: tt + 4})
	if err != nil {
		t.Fatal(err)
	}
	var agreed *bitset.Set
	for i, m := range ms {
		if res.Crashed.Contains(i) {
			continue
		}
		set, ok := m.Decision()
		if !ok {
			t.Fatalf("baseline node %d undecided", i)
		}
		if set.Contains(5) {
			t.Fatal("silent-crashed node 5 included")
		}
		if agreed == nil {
			agreed = set
		} else if !agreed.Equal(set) {
			t.Fatal("baseline decided sets differ")
		}
	}
}

func TestDirectBaselineMessageScale(t *testing.T) {
	// The baseline's Θ(t·n²) message profile is the crossover input
	// for the E7/E11 experiments.
	n, tt := 60, 12
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ps[i] = NewDirect(i, n, tt)
	}
	res, err := sim.Run(sim.Config{Protocols: ps, MaxRounds: tt + 4})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(n * (n - 1) * (tt + 2))
	if res.Metrics.Messages != want {
		t.Fatalf("messages = %d, want %d", res.Metrics.Messages, want)
	}
}

func TestVectorConsensusDirect(t *testing.T) {
	// VectorFewCrashes standalone: all nodes share the same input
	// vector except one instance where inputs differ; per-instance
	// validity and cross-node agreement must hold.
	n, tt := 60, 12
	top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*consensus.VectorFewCrashes, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		in := bitset.New(n)
		in.Add(i)     // instance i seeded only at node i
		in.Add(n - 1) // instance n-1 seeded everywhere
		ms[i] = consensus.NewVectorFewCrashes(i, top, in)
		ps[i] = ms[i]
	}
	_, err = sim.Run(sim.Config{Protocols: ps, MaxRounds: top.Schedule.Few + 5})
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
			t.Fatalf("node %d decision misses unanimously-seeded instance", i)
		}
		if agreed == nil {
			agreed = set
		} else if !agreed.Equal(set) {
			t.Fatal("vector decisions differ")
		}
	}
	// Validity per instance: instance j can only be decided 1 if some
	// node had input 1 for it — every instance was seeded, so decided
	// bits are unconstrained upward, but instances of little nodes
	// seeded at little nodes must be present (flooded through G).
	for j := 0; j < top.L; j++ {
		if !agreed.Contains(j) {
			t.Fatalf("instance %d seeded at little node %d missing from decision", j, j)
		}
	}
}
