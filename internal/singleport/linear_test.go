package singleport

import (
	"testing"

	"lineartime/internal/consensus"
	"lineartime/internal/crash"
	"lineartime/internal/rng"
	"lineartime/internal/sim"
)

func runLinear(t *testing.T, n, tt int, inputs []bool, adv sim.LinkFault, seed uint64) ([]*LinearConsensus, *sim.Result) {
	t.Helper()
	top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*LinearConsensus, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ms[i] = New(i, top, inputs[i])
		ps[i] = ms[i]
	}
	res, err := sim.Run(sim.Config{
		Protocols:  ps,
		Fault:      adv,
		MaxRounds:  top.Schedule.SP + 5,
		SinglePort: true,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return ms, res
}

func randomInputs(n int, seed uint64) []bool {
	r := rng.New(seed)
	in := make([]bool, n)
	for i := range in {
		in[i] = r.Intn(2) == 1
	}
	return in
}

func checkConsensus(t *testing.T, label string, inputs []bool, ms []*LinearConsensus, res *sim.Result) {
	t.Helper()
	any0, any1 := false, false
	for _, b := range inputs {
		if b {
			any1 = true
		} else {
			any0 = true
		}
	}
	var agreed *bool
	for i, m := range ms {
		if res.Crashed.Contains(i) {
			continue
		}
		v, ok := m.Decision()
		if !ok {
			t.Fatalf("%s: node %d undecided", label, i)
		}
		if v && !any1 || !v && !any0 {
			t.Fatalf("%s: node %d decided %v, not an input", label, i, v)
		}
		if agreed == nil {
			agreed = &v
		} else if *agreed != v {
			t.Fatalf("%s: disagreement", label)
		}
	}
	if agreed == nil {
		t.Fatalf("%s: everyone crashed", label)
	}
}

func TestLinearConsensusNoFaults(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		n, tt := 50, 10
		inputs := randomInputs(n, seed)
		ms, res := runLinear(t, n, tt, inputs, nil, seed)
		checkConsensus(t, "no-faults", inputs, ms, res)
	}
}

func TestLinearConsensusAllSameInput(t *testing.T) {
	n, tt := 50, 10
	for _, val := range []bool{false, true} {
		inputs := make([]bool, n)
		for i := range inputs {
			inputs[i] = val
		}
		ms, res := runLinear(t, n, tt, inputs, nil, 3)
		for i, m := range ms {
			if res.Crashed.Contains(i) {
				continue
			}
			if v, ok := m.Decision(); !ok || v != val {
				t.Fatalf("node %d decided %v/%v, want %v", i, v, ok, val)
			}
		}
	}
}

func TestLinearConsensusWithCrashes(t *testing.T) {
	n, tt := 50, 10
	for seed := uint64(0); seed < 4; seed++ {
		inputs := randomInputs(n, seed+10)
		adv := crash.NewRandom(n, tt, 200, seed)
		ms, res := runLinear(t, n, tt, inputs, adv, seed+20)
		checkConsensus(t, "crashes", inputs, ms, res)
	}
}

func TestLinearConsensusLittleTargeted(t *testing.T) {
	n, tt := 60, 12
	inputs := randomInputs(n, 5)
	adv := crash.NewTargetLittle(5*tt, tt, 7)
	ms, res := runLinear(t, n, tt, inputs, adv, 6)
	checkConsensus(t, "little-targeted", inputs, ms, res)
}

func TestLinearConsensusSinglePortDiscipline(t *testing.T) {
	// The engine rejects any >1-message round in single-port mode, so
	// a clean completion certifies the discipline; this test exists to
	// pin that property explicitly.
	n, tt := 30, 6
	inputs := randomInputs(n, 9)
	_, res := runLinear(t, n, tt, inputs, nil, 11)
	if res.Metrics.Rounds == 0 {
		t.Fatal("no rounds executed")
	}
}

func TestLinearConsensusShape(t *testing.T) {
	// Theorem 12 shape: rounds O(t + log n), messages O(n + t log n).
	n, tt := 100, 20
	inputs := randomInputs(n, 13)
	ms, res := runLinear(t, n, tt, inputs, nil, 17)
	// Rounds: linear in t with the 2d/2∆ compilation constants.
	if sp := ms[0].top.Schedule.SP; res.Metrics.Rounds != sp {
		t.Fatalf("rounds = %d, want schedule %d", res.Metrics.Rounds, sp)
	}
	maxRounds := 2*16*(5*tt+20) + 2*64*(2*7+4) + 4*(6*tt+7+16) + 4096
	if res.Metrics.Rounds > maxRounds {
		t.Fatalf("rounds = %d above compiled O(t + log n) budget %d", res.Metrics.Rounds, maxRounds)
	}
	// Messages: flood ≤ L·d, probing ≤ L·d·γ, H ≤ n·∆, ring ≈ n.
	limit := int64(4 * (100*16*12 + n*64 + 2*n))
	if res.Metrics.Messages > limit {
		t.Fatalf("messages = %d above O(n + t log n) budget %d", res.Metrics.Messages, limit)
	}
}

// TestScheduleDeterministic: every node follows the topology's one
// schedule, so a fault-free run halts them all in its last round.
func TestScheduleDeterministic(t *testing.T) {
	ms, res := runLinear(t, 40, 8, randomInputs(40, 1), nil, 1)
	for i, at := range res.HaltedAt {
		if want := ms[0].top.Schedule.SP - 1; at != want {
			t.Fatalf("node %d halted in round %d, want the schedule's last round %d", i, at, want)
		}
	}
}

func TestLinearConsensusCascadeAdversary(t *testing.T) {
	// The cascade worst case (one crash per round, single message
	// leaked) hits the compiled flood segment round after round.
	n, tt := 50, 10
	inputs := randomInputs(n, 21)
	adv := crash.NewCascade(n, tt, 1, 23)
	ms, res := runLinear(t, n, tt, inputs, adv, 25)
	checkConsensus(t, "cascade", inputs, ms, res)
}

func TestLinearConsensusAllCrashButLittleSurvivors(t *testing.T) {
	// The budget lands entirely on non-little nodes: the little
	// overlay stays intact, so the decision machinery is unharmed and
	// only the spreading segments are exercised by the losses.
	n, tt := 50, 10
	top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if top.L >= n {
		t.Skip("no non-little nodes at this (n, t)")
	}
	var events []crash.Event
	for i := 0; i < tt && top.L+i < n; i++ {
		events = append(events, crash.Event{Node: top.L + i, Round: 2 * i, Keep: 0})
	}
	inputs := randomInputs(n, 33)
	ms, res := runLinear(t, n, tt, inputs, crash.NewSchedule(events), 31)
	checkConsensus(t, "non-little-crashes", inputs, ms, res)
}

func TestLinearMatchesMultiPortDecision(t *testing.T) {
	// The single-port compilation must reach the same decision value
	// as the multi-port Few-Crashes stack on the same topology and
	// inputs: both decide the OR of the little inputs propagated over
	// the same little overlay.
	n, tt := 60, 12
	for seed := uint64(1); seed <= 3; seed++ {
		top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		inputs := randomInputs(n, seed*13)

		multi := make([]sim.Protocol, n)
		var multiRef *consensus.FewCrashes
		for i := 0; i < n; i++ {
			m := new(consensus.FewCrashes)
			m.Init(i, top, inputs[i])
			multi[i] = m
			multiRef = m
		}
		if _, err := sim.Run(sim.Config{Protocols: multi, MaxRounds: top.Schedule.Few + 4}); err != nil {
			t.Fatal(err)
		}
		mv, ok := multiRef.Decision()
		if !ok {
			t.Fatal("multi-port undecided")
		}

		single := make([]sim.Protocol, n)
		var singleRef *LinearConsensus
		for i := 0; i < n; i++ {
			m := New(i, top, inputs[i])
			single[i] = m
			singleRef = m
		}
		if _, err := sim.Run(sim.Config{
			Protocols: single, MaxRounds: top.Schedule.SP + 4, SinglePort: true,
		}); err != nil {
			t.Fatal(err)
		}
		sv, ok := singleRef.Decision()
		if !ok {
			t.Fatal("single-port undecided")
		}
		if mv != sv {
			t.Fatalf("seed %d: multi-port decided %v, single-port %v", seed, mv, sv)
		}
	}
}
