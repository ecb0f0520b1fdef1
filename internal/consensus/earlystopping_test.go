package consensus

import (
	"testing"

	"lineartime/internal/crash"
	"lineartime/internal/sim"
)

func runEarlyStopping(t *testing.T, n, tt int, inputs []bool, adv sim.LinkFault) ([]*EarlyStopping, *sim.Result) {
	t.Helper()
	ms := make([]*EarlyStopping, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ms[i] = NewEarlyStopping(i, n, tt, inputs[i])
		ps[i] = ms[i]
	}
	res, err := sim.Run(sim.Config{Protocols: ps, Fault: adv, MaxRounds: tt + 6})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return ms, res
}

func TestEarlyStoppingNoFaultsDecidesFast(t *testing.T) {
	n, tt := 30, 10
	inputs := inputsPattern(n, "half", 1)
	ms, res := runEarlyStopping(t, n, tt, inputs, nil)
	decisions := make([]*bool, n)
	for i, m := range ms {
		if v, ok := m.Decision(); ok {
			v := v
			decisions[i] = &v
		}
		// f = 0: the first comparable round (round 1) is clean.
		if m.decidedAt > 2 {
			t.Fatalf("node %d decided at round %d with zero crashes", i, m.decidedAt)
		}
	}
	checkConsensus(t, "early-no-faults", inputs, decisions, res.Crashed.Contains)
	if res.Metrics.Rounds > 4 {
		t.Fatalf("run took %d rounds with zero crashes, want ≤ 4", res.Metrics.Rounds)
	}
}

func TestEarlyStoppingRoundsTrackActualCrashes(t *testing.T) {
	// The early-stopping property: rounds grow with f (actual
	// crashes), not t (the bound). Cascade one crash per round.
	n, tt := 30, 20
	inputs := inputsPattern(n, "single", 1)
	for _, f := range []int{0, 3, 6, 12} {
		adv := crash.NewCascade(n, f, 1, 7)
		ms, res := runEarlyStopping(t, n, tt, inputs, adv)
		decisions := make([]*bool, n)
		worst := 0
		for i, m := range ms {
			if res.Crashed.Contains(i) {
				continue
			}
			if v, ok := m.Decision(); ok {
				v := v
				decisions[i] = &v
			}
			if m.decidedAt > worst {
				worst = m.decidedAt
			}
		}
		checkConsensus(t, "early-cascade", inputs, decisions, res.Crashed.Contains)
		if worst > f+3 {
			t.Fatalf("f=%d: slowest decision at round %d, want ≤ f+3 (early stopping)", f, worst)
		}
	}
}

func TestEarlyStoppingAdversarialChain(t *testing.T) {
	// The classic worst case: the lone 1-holder crashes delivering to
	// exactly one node, round after round.
	n, tt := 20, 8
	inputs := make([]bool, n)
	inputs[0] = true
	events := make([]crash.Event, 0, tt)
	for i := 0; i < tt; i++ {
		events = append(events, crash.Event{Node: i, Round: i, Keep: 1})
	}
	ms, res := runEarlyStopping(t, n, tt, inputs, crash.NewSchedule(events))
	decisions := make([]*bool, n)
	for i, m := range ms {
		if v, ok := m.Decision(); ok {
			v := v
			decisions[i] = &v
		}
	}
	checkConsensus(t, "early-chain", inputs, decisions, res.Crashed.Contains)
}

func TestEarlyStoppingRandom(t *testing.T) {
	n, tt := 30, 10
	for seed := uint64(0); seed < 6; seed++ {
		inputs := inputsPattern(n, "random", seed)
		adv := crash.NewRandom(n, tt, tt, seed)
		ms, res := runEarlyStopping(t, n, tt, inputs, adv)
		decisions := make([]*bool, n)
		for i, m := range ms {
			if v, ok := m.Decision(); ok {
				v := v
				decisions[i] = &v
			}
		}
		checkConsensus(t, "early-random", inputs, decisions, res.Crashed.Contains)
	}
}

func TestEarlyStoppingMessageProfile(t *testing.T) {
	// The contrast with Few-Crashes: early stopping pays Θ(n²) per
	// round for its f-sensitivity.
	n, tt := 40, 10
	inputs := inputsPattern(n, "half", 2)
	_, res := runEarlyStopping(t, n, tt, inputs, nil)
	if res.Metrics.Messages < int64(n*(n-1)) {
		t.Fatalf("messages = %d, want ≥ n(n-1)", res.Metrics.Messages)
	}
}
