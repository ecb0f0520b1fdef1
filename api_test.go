package lineartime

import (
	"testing"
)

func boolInputs(n int, fn func(i int) bool) []bool {
	in := make([]bool, n)
	for i := range in {
		in[i] = fn(i)
	}
	return in
}

func TestRunConsensusAllAlgorithms(t *testing.T) {
	n, tt := 50, 10
	inputs := boolInputs(n, func(i int) bool { return i%3 == 0 })
	for _, algo := range []Algorithm{FewCrashes, ManyCrashes, FloodingBaseline, SinglePortLinear} {
		t.Run(algo.String(), func(t *testing.T) {
			r, err := RunConsensus(n, tt, inputs, WithAlgorithm(algo), WithSeed(7))
			if err != nil {
				t.Fatal(err)
			}
			if !r.Agreement || !r.Validity {
				t.Fatalf("agreement=%v validity=%v", r.Agreement, r.Validity)
			}
			if r.Metrics.Rounds == 0 || r.Metrics.Messages == 0 {
				t.Fatal("empty metrics")
			}
		})
	}
}

func TestRunConsensusWithCrashes(t *testing.T) {
	n, tt := 50, 10
	inputs := boolInputs(n, func(i int) bool { return i%2 == 0 })
	r, err := RunConsensus(n, tt, inputs,
		WithSeed(3),
		WithRandomCrashes(tt, 30))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Agreement || !r.Validity {
		t.Fatalf("agreement=%v validity=%v with crashes", r.Agreement, r.Validity)
	}
	if len(r.Crashed) == 0 {
		t.Fatal("random adversary crashed nobody")
	}
	for _, c := range r.Crashed {
		if r.Decisions[c] != -1 {
			t.Fatalf("crashed node %d has decision %d", c, r.Decisions[c])
		}
	}
}

func TestRunConsensusSchedule(t *testing.T) {
	n, tt := 40, 8
	inputs := boolInputs(n, func(i int) bool { return i == 0 })
	r, err := RunConsensus(n, tt, inputs,
		WithSeed(1),
		WithCrashSchedule(CrashEvent{Node: 3, Round: 0, Keep: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Crashed) != 1 || r.Crashed[0] != 3 {
		t.Fatalf("crashed = %v, want [3]", r.Crashed)
	}
}

func TestRunConsensusValidation(t *testing.T) {
	if _, err := RunConsensus(10, 2, nil); err == nil {
		t.Fatal("missing inputs accepted")
	}
	inputs := boolInputs(10, func(int) bool { return false })
	if _, err := RunConsensus(10, 2, inputs, WithAlgorithm(Algorithm(99))); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := RunConsensus(10, 9, inputs); err == nil {
		t.Fatal("t > n/5 accepted for FewCrashes")
	}
}

func TestRunGossip(t *testing.T) {
	n, tt := 50, 10
	rumors := make([]uint64, n)
	for i := range rumors {
		rumors[i] = uint64(1000 + i)
	}
	r, err := RunGossip(n, tt, rumors, false, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Complete {
		t.Fatal("gossip incomplete without faults")
	}
	if r.Extant[0][7] != 1007 {
		t.Fatalf("rumor of node 7 = %d", r.Extant[0][7])
	}

	base, err := RunGossip(n, tt, rumors, true, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if !base.Complete {
		t.Fatal("baseline gossip incomplete")
	}
	if base.Metrics.Messages != int64(n*(n-1)) {
		t.Fatalf("baseline messages = %d", base.Metrics.Messages)
	}
}

func TestRunCheckpointing(t *testing.T) {
	// n is chosen beyond the algorithm-vs-baseline message crossover
	// (the baseline costs Θ(t·n²); the algorithm Θ(t·log n·log t) with
	// our scaled overlay constants) so the cost comparison below holds.
	n, tt := 120, 24
	r, err := RunCheckpointing(n, tt, false,
		WithSeed(4),
		WithCrashSchedule(CrashEvent{Node: 6, Round: 0, Keep: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Agreement {
		t.Fatal("checkpointing agreement failed")
	}
	for _, v := range r.ExtantSet {
		if v == 6 {
			t.Fatal("silently crashed node 6 in extant set")
		}
	}
	base, err := RunCheckpointing(n, tt, true, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if !base.Agreement {
		t.Fatal("baseline agreement failed")
	}
	if base.Metrics.Messages <= r.Metrics.Messages {
		t.Fatalf("baseline (%d msgs) should cost more than the algorithm (%d msgs)",
			base.Metrics.Messages, r.Metrics.Messages)
	}
}

func TestRunByzantineConsensus(t *testing.T) {
	n, tt := 40, 4
	inputs := make([]uint64, n)
	for i := range inputs {
		inputs[i] = uint64(100 + i)
	}
	r, err := RunByzantineConsensus(n, tt, inputs, false,
		WithSeed(6),
		WithByzantine(Equivocate, 0, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Agreement {
		t.Fatal("byzantine agreement failed")
	}
	for i, ok := range r.Decided {
		if ok && r.Decisions[i] != uint64(100+r.L-1) {
			t.Fatalf("node %d decided %d, want max honest little input", i, r.Decisions[i])
		}
	}
	if r.Metrics.ByzMessages == 0 {
		t.Fatal("equivocators sent nothing")
	}

	base, err := RunByzantineConsensus(n, tt, inputs, true,
		WithSeed(6), WithByzantine(Silence, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !base.Agreement {
		t.Fatal("baseline byzantine agreement failed")
	}
}

func TestRunByzantineValidation(t *testing.T) {
	inputs := make([]uint64, 10)
	if _, err := RunByzantineConsensus(10, 5, inputs, false); err == nil {
		t.Fatal("t = n/2 accepted")
	}
	if _, err := RunByzantineConsensus(10, 2, inputs, false,
		WithByzantine(Silence, 0, 1, 2)); err == nil {
		t.Fatal("more corrupted nodes than t accepted")
	}
	if _, err := RunByzantineConsensus(10, 2, inputs, false,
		WithByzantine(Silence, 99)); err == nil {
		t.Fatal("out-of-range corrupted node accepted")
	}
	if _, err := RunByzantineConsensus(10, 2, inputs[:5], false); err == nil {
		t.Fatal("short inputs accepted")
	}
}
