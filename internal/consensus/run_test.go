package consensus

import (
	"testing"

	"lineartime/internal/crash"
	"lineartime/internal/rng"
	"lineartime/internal/sim"
)

// runFew executes Few-Crashes-Consensus on n nodes with crash bound t,
// the given inputs and adversary, and returns the machines and result.
func runFew(t *testing.T, n, tt int, inputs []bool, adv sim.LinkFault, seed uint64) ([]*FewCrashes, *sim.Result) {
	t.Helper()
	top, err := NewTopology(n, tt, TopologyOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*FewCrashes, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ms[i] = new(FewCrashes)
		ms[i].Init(i, top, inputs[i])
		ps[i] = ms[i]
	}
	res, err := sim.Run(sim.Config{
		Protocols: ps,
		Fault:     adv,
		MaxRounds: top.Schedule.Few + 5,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return ms, res
}

// checkConsensus asserts validity + agreement + termination over the
// surviving nodes.
func checkConsensus(t *testing.T, label string, inputs []bool, decisions []*bool, crashed func(int) bool) {
	t.Helper()
	any0, any1 := false, false
	for _, in := range inputs {
		if in {
			any1 = true
		} else {
			any0 = true
		}
	}
	var agreed *bool
	for i, d := range decisions {
		if crashed(i) {
			continue
		}
		if d == nil {
			t.Fatalf("%s: node %d did not decide", label, i)
		}
		if *d && !any1 || !*d && !any0 {
			t.Fatalf("%s: node %d decided %v, not any node's input", label, i, *d)
		}
		if agreed == nil {
			agreed = d
		} else if *agreed != *d {
			t.Fatalf("%s: disagreement (%v vs %v)", label, *agreed, *d)
		}
	}
	if agreed == nil {
		t.Fatalf("%s: every node crashed", label)
	}
}

func collectFew(ms []*FewCrashes) []*bool {
	out := make([]*bool, len(ms))
	for i, m := range ms {
		if v, ok := m.Decision(); ok {
			v := v
			out[i] = &v
		}
	}
	return out
}

func inputsPattern(n int, pattern string, seed uint64) []bool {
	in := make([]bool, n)
	r := rng.New(seed)
	for i := range in {
		switch pattern {
		case "zero":
		case "one":
			in[i] = true
		case "half":
			in[i] = i%2 == 0
		case "single":
			in[i] = i == n-1
		case "littleone":
			in[i] = i == 0
		default: // random
			in[i] = r.Intn(2) == 1
		}
	}
	return in
}

func TestFewCrashesNoFaults(t *testing.T) {
	for _, pattern := range []string{"zero", "one", "half", "single", "littleone"} {
		t.Run(pattern, func(t *testing.T) {
			n, tt := 80, 16
			inputs := inputsPattern(n, pattern, 1)
			ms, res := runFew(t, n, tt, inputs, nil, 7)
			checkConsensus(t, pattern, inputs, collectFew(ms), res.Crashed.Contains)
		})
	}
}

func TestFewCrashesValidityAllZero(t *testing.T) {
	n, tt := 60, 12
	inputs := inputsPattern(n, "zero", 1)
	ms, res := runFew(t, n, tt, inputs, nil, 3)
	for i, m := range ms {
		if res.Crashed.Contains(i) {
			continue
		}
		v, ok := m.Decision()
		if !ok || v {
			t.Fatalf("node %d decided %v/%v, want 0", i, v, ok)
		}
	}
}

func TestFewCrashesRandomAdversaries(t *testing.T) {
	n, tt := 80, 16
	for seed := uint64(0); seed < 8; seed++ {
		inputs := inputsPattern(n, "random", seed+100)
		adv := crash.NewRandom(n, tt, 40, seed)
		ms, res := runFew(t, n, tt, inputs, adv, 7)
		checkConsensus(t, "random", inputs, collectFew(ms), res.Crashed.Contains)
	}
}

func TestFewCrashesTargetLittle(t *testing.T) {
	n, tt := 100, 20
	inputs := inputsPattern(n, "half", 5)
	adv := crash.NewTargetLittle(100, 20, 3)
	ms, res := runFew(t, n, tt, inputs, adv, 9)
	checkConsensus(t, "target-little", inputs, collectFew(ms), res.Crashed.Contains)
}

func TestFewCrashesCascade(t *testing.T) {
	n, tt := 80, 16
	inputs := inputsPattern(n, "single", 0)
	adv := crash.NewCascade(n, tt, 1, 11)
	ms, res := runFew(t, n, tt, inputs, adv, 13)
	checkConsensus(t, "cascade", inputs, collectFew(ms), res.Crashed.Contains)
}

func TestFewCrashesPerformanceShape(t *testing.T) {
	// Theorem 7 shape: rounds O(t + log n), messages O(n + t log t).
	n, tt := 200, 40
	inputs := inputsPattern(n, "half", 1)
	ms, res := runFew(t, n, tt, inputs, nil, 21)
	rounds := res.Metrics.Rounds
	if rounds > 8*tt+64 {
		t.Fatalf("rounds = %d, too large for O(t + log n) with t=%d", rounds, tt)
	}
	// Generous constant: messages ≤ C·(n + t·lg t·lg t).
	limit := int64(64*n + 64*tt*10*10)
	if res.Metrics.Messages > limit {
		t.Fatalf("messages = %d exceed shape bound %d", res.Metrics.Messages, limit)
	}
	_ = ms
}

func TestAEAStandalone(t *testing.T) {
	n, tt := 100, 20
	top, err := NewTopology(n, tt, TopologyOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inputs := inputsPattern(n, "littleone", 0)
	ms := make([]*AEA, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ms[i] = NewAEA(i, top, inputs[i], 0, true)
		ps[i] = ms[i]
	}
	res, err := sim.Run(sim.Config{Protocols: ps, MaxRounds: top.Schedule.AEA + 2})
	if err != nil {
		t.Fatal(err)
	}
	decided, ones := 0, 0
	for _, m := range ms {
		if v, ok := m.Decided(); ok {
			decided++
			if v {
				ones++
			}
		}
	}
	// 3/5-AEA: at least 3n/5 nodes decide (no faults: everyone should).
	if decided < 3*n/5 {
		t.Fatalf("only %d/%d nodes decided, want ≥ 3n/5", decided, n)
	}
	if ones != decided {
		t.Fatalf("agreement violated: %d of %d deciders chose 1", ones, decided)
	}
	if res.Metrics.Rounds != top.Schedule.AEA {
		t.Fatalf("rounds = %d, want schedule %d", res.Metrics.Rounds, top.Schedule.AEA)
	}
	// Theorem 5 accounting: Part 1 ≤ L·d, Part 2 ≤ L·d·γ (= O(t log t)
	// messages, which is O(n) exactly in the t = O(n/log n) range of
	// Table 1), Part 3 ≤ n.
	p := top.Little.P
	limit := int64(2 * (p.N*p.Degree*(p.Gamma+1) + n))
	if res.Metrics.Messages > limit {
		t.Fatalf("messages = %d exceed structural bound %d", res.Metrics.Messages, limit)
	}
}

func TestAEAUnderLittleCrashes(t *testing.T) {
	n, tt := 100, 20
	top, err := NewTopology(n, tt, TopologyOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inputs := inputsPattern(n, "half", 2)
	ms := make([]*AEA, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ms[i] = NewAEA(i, top, inputs[i], 0, true)
		ps[i] = ms[i]
	}
	adv := crash.NewTargetLittle(top.L, tt, 17)
	res, err := sim.Run(sim.Config{Protocols: ps, Fault: adv, MaxRounds: top.Schedule.AEA + 2})
	if err != nil {
		t.Fatal(err)
	}
	decided := 0
	var first *bool
	for i, m := range ms {
		if res.Crashed.Contains(i) {
			continue
		}
		if v, ok := m.Decided(); ok {
			decided++
			if first == nil {
				first = &v
			} else if *first != v {
				t.Fatal("AEA deciders disagree under little-node crashes")
			}
		}
	}
	if decided < 3*n/5 {
		t.Fatalf("only %d deciders under crashes, want ≥ 3n/5 = %d", decided, 3*n/5)
	}
}

func TestSCVStandaloneSmallT(t *testing.T) {
	// t² ≤ n branch: direct little-node inquiry.
	n, tt := 120, 10
	testSCV(t, n, tt)
}

func TestSCVStandaloneLargeT(t *testing.T) {
	// t² > n branch: G_i phases then fallback.
	n, tt := 120, 24
	testSCV(t, n, tt)
}

func testSCV(t *testing.T, n, tt int) {
	t.Helper()
	top, err := NewTopology(n, tt, TopologyOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*SCV, n)
	ps := make([]sim.Protocol, n)
	littleHolders := 0
	for i := 0; i < n; i++ {
		// The first 3n/5 nodes hold the value, which always includes
		// some little nodes (the fallback phase's responders).
		has := i < 3*n/5
		if has && top.IsLittle(i) {
			littleHolders++
		}
		ms[i] = NewSCV(i, top, has, true, 0, true)
		ps[i] = ms[i]
	}
	if littleHolders == 0 {
		t.Fatal("test setup: no little holders")
	}
	res, err := sim.Run(sim.Config{Protocols: ps, MaxRounds: top.Schedule.SCV + 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		v, ok := m.Decided()
		if !ok {
			t.Fatalf("node %d undecided after SCV", i)
		}
		if !v {
			t.Fatalf("node %d decided wrong value", i)
		}
	}
	// Theorem 6 shape: O(log t) rounds beyond Part 1, O(n + t log t) messages.
	if res.Metrics.Messages > int64(80*n) {
		t.Fatalf("messages = %d, want O(n) scale", res.Metrics.Messages)
	}
}

func TestSCVWithCrashesAmongHolders(t *testing.T) {
	n, tt := 100, 20
	top, err := NewTopology(n, tt, TopologyOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*SCV, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ms[i] = NewSCV(i, top, i < 3*n/5, true, 0, true)
		ps[i] = ms[i]
	}
	adv := crash.NewRandom(n, tt, 10, 2)
	res, err := sim.Run(sim.Config{Protocols: ps, Fault: adv, MaxRounds: top.Schedule.SCV + 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		if res.Crashed.Contains(i) {
			continue
		}
		if v, ok := m.Decided(); !ok || !v {
			t.Fatalf("non-faulty node %d failed to adopt the common value", i)
		}
	}
}

func TestManyCrashesAllAlpha(t *testing.T) {
	n := 64
	for _, tt := range []int{1, 13, 32, 50, 63} {
		inputs := inputsPattern(n, "half", uint64(tt))
		mt, err := NewManyTopology(n, tt, TopologyOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		ms := make([]*ManyCrashes, n)
		ps := make([]sim.Protocol, n)
		for i := 0; i < n; i++ {
			ms[i] = NewManyCrashes(i, mt, inputs[i])
			ps[i] = ms[i]
		}
		adv := crash.NewRandom(n, tt, n, uint64(tt)*3+1)
		res, err := sim.Run(sim.Config{Protocols: ps, Fault: adv, MaxRounds: mt.Schedule.Many + 5})
		if err != nil {
			t.Fatalf("t=%d: %v", tt, err)
		}
		decisions := make([]*bool, n)
		for i, m := range ms {
			if v, ok := m.Decision(); ok {
				v := v
				decisions[i] = &v
			}
		}
		checkConsensus(t, "many", inputs, decisions, res.Crashed.Contains)

		// Theorem 8: rounds ≤ n + 3(1 + lg n) plus our scheduling slack.
		if res.Metrics.Rounds > n+8*(1+7) {
			t.Fatalf("t=%d: rounds = %d above Theorem 8 budget", tt, res.Metrics.Rounds)
		}
	}
}

func TestManyCrashesExtremeWipeout(t *testing.T) {
	// Corollary 1 regime: t = n−1, adversary kills everyone but one
	// node before any message. The fallback rule must let the lone
	// survivor decide its own input (validity).
	n := 32
	tt := n - 1
	mt, err := NewManyTopology(n, tt, TopologyOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	inputs := inputsPattern(n, "one", 0)
	ms := make([]*ManyCrashes, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ms[i] = NewManyCrashes(i, mt, inputs[i])
		ps[i] = ms[i]
	}
	events := make([]crash.Event, 0, tt)
	for i := 1; i < n; i++ {
		events = append(events, crash.Event{Node: i, Round: 0, Keep: 0})
	}
	res, err := sim.Run(sim.Config{
		Protocols: ps,
		Fault:     crash.NewSchedule(events),
		MaxRounds: mt.Schedule.Many + 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed.Count() != tt {
		t.Fatalf("crashed %d, want %d", res.Crashed.Count(), tt)
	}
	v, ok := ms[0].Decision()
	if !ok || !v {
		t.Fatalf("lone survivor decided %v/%v, want its input 1", v, ok)
	}
}

func TestFloodingBaselineCorrect(t *testing.T) {
	n, tt := 40, 10
	for _, pattern := range []string{"zero", "one", "half", "single"} {
		inputs := inputsPattern(n, pattern, 1)
		ms := make([]*Flooding, n)
		ps := make([]sim.Protocol, n)
		for i := 0; i < n; i++ {
			ms[i] = NewFlooding(i, n, tt, inputs[i])
			ps[i] = ms[i]
		}
		adv := crash.NewRandom(n, tt, tt+2, 5)
		res, err := sim.Run(sim.Config{Protocols: ps, Fault: adv, MaxRounds: tt + 4})
		if err != nil {
			t.Fatal(err)
		}
		decisions := make([]*bool, n)
		for i, m := range ms {
			if v, ok := m.Decision(); ok {
				v := v
				decisions[i] = &v
			}
		}
		checkConsensus(t, "flooding-"+pattern, inputs, decisions, res.Crashed.Contains)
	}
}

func TestFloodingBaselineCascadeChain(t *testing.T) {
	// The adversarial chain from the correctness argument: each round
	// the current 1-holder crashes delivering to exactly one node.
	n, tt := 20, 8
	inputs := make([]bool, n)
	inputs[0] = true
	ms := make([]*Flooding, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ms[i] = NewFlooding(i, n, tt, inputs[i])
		ps[i] = ms[i]
	}
	// Node 0 crashes at round 0 keeping 1 message (to node 1, the
	// lowest-numbered target); node 1 crashes at round 1 keeping 1...
	events := make([]crash.Event, 0, tt)
	for i := 0; i < tt; i++ {
		events = append(events, crash.Event{Node: i, Round: i, Keep: 1})
	}
	res, err := sim.Run(sim.Config{
		Protocols: ps,
		Fault:     crash.NewSchedule(events),
		MaxRounds: tt + 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	decisions := make([]*bool, n)
	for i, m := range ms {
		if v, ok := m.Decision(); ok {
			v := v
			decisions[i] = &v
		}
	}
	checkConsensus(t, "flooding-chain", inputs, decisions, res.Crashed.Contains)
}

func TestFloodingMessageScale(t *testing.T) {
	// The baseline must show its Θ(n²) message profile — that is the
	// crossover the paper's Table 1 comparisons rely on.
	n, tt := 100, 20
	inputs := inputsPattern(n, "one", 0)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ps[i] = NewFlooding(i, n, tt, inputs[i])
	}
	res, err := sim.Run(sim.Config{Protocols: ps, MaxRounds: tt + 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Messages < int64(n*(n-1)) {
		t.Fatalf("flooding sent %d messages, want ≥ n(n-1) = %d", res.Metrics.Messages, n*(n-1))
	}
}
