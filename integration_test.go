package lineartime

import (
	"testing"
)

// Run determinism: two runs of one full protocol stack with the same
// options produce identical metrics and decisions, not just toy
// protocols. The three TestCrossEngine* names date from when the second
// run used another engine; they are kept so test history stays
// comparable across the engine's retirement.
func TestCrossEngineConsensus(t *testing.T) {
	n, tt := 60, 12
	inputs := boolInputs(n, func(i int) bool { return i%5 == 0 })
	for _, algo := range []Algorithm{FewCrashes, ManyCrashes, FloodingBaseline, EarlyStoppingBaseline} {
		t.Run(algo.String(), func(t *testing.T) {
			seq, err := RunConsensus(n, tt, inputs,
				WithSeed(9), WithAlgorithm(algo), WithRandomCrashes(tt, 30))
			if err != nil {
				t.Fatal(err)
			}
			con, err := RunConsensus(n, tt, inputs,
				WithSeed(9), WithAlgorithm(algo), WithRandomCrashes(tt, 30))
			if err != nil {
				t.Fatal(err)
			}
			if !metricsEqual(seq.Metrics, con.Metrics) {
				t.Fatalf("metrics differ:\nseq %+v\ncon %+v", seq.Metrics, con.Metrics)
			}
			for i := range seq.Decisions {
				if seq.Decisions[i] != con.Decisions[i] {
					t.Fatalf("node %d decision differs: %d vs %d",
						i, seq.Decisions[i], con.Decisions[i])
				}
			}
		})
	}
}

func TestCrossEngineGossip(t *testing.T) {
	n, tt := 50, 10
	rumors := make([]uint64, n)
	for i := range rumors {
		rumors[i] = uint64(i * 3)
	}
	seq, err := RunGossip(n, tt, rumors, false, WithSeed(4), WithRandomCrashes(tt, 30))
	if err != nil {
		t.Fatal(err)
	}
	con, err := RunGossip(n, tt, rumors, false, WithSeed(4), WithRandomCrashes(tt, 30))
	if err != nil {
		t.Fatal(err)
	}
	if !metricsEqual(seq.Metrics, con.Metrics) {
		t.Fatalf("metrics differ:\nseq %+v\ncon %+v", seq.Metrics, con.Metrics)
	}
	for i := range seq.Extant {
		if (seq.Extant[i] == nil) != (con.Extant[i] == nil) {
			t.Fatalf("node %d liveness differs", i)
		}
		if seq.Extant[i] == nil {
			continue
		}
		if len(seq.Extant[i]) != len(con.Extant[i]) {
			t.Fatalf("node %d extant sizes differ: %d vs %d",
				i, len(seq.Extant[i]), len(con.Extant[i]))
		}
		for k, v := range seq.Extant[i] {
			if con.Extant[i][k] != v {
				t.Fatalf("node %d rumor for %d differs", i, k)
			}
		}
	}
}

func TestCrossEngineCheckpointing(t *testing.T) {
	n, tt := 50, 10
	seq, err := RunCheckpointing(n, tt, false, WithSeed(6),
		WithCrashSchedule(CrashEvent{Node: 3, Round: 0, Keep: 0}))
	if err != nil {
		t.Fatal(err)
	}
	con, err := RunCheckpointing(n, tt, false, WithSeed(6),
		WithCrashSchedule(CrashEvent{Node: 3, Round: 0, Keep: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if !metricsEqual(seq.Metrics, con.Metrics) {
		t.Fatalf("metrics differ:\nseq %+v\ncon %+v", seq.Metrics, con.Metrics)
	}
	if len(seq.ExtantSet) != len(con.ExtantSet) {
		t.Fatal("extant sets differ across engines")
	}
	for i := range seq.ExtantSet {
		if seq.ExtantSet[i] != con.ExtantSet[i] {
			t.Fatal("extant set members differ across engines")
		}
	}
}

// Determinism: identical configuration twice gives identical reports.
func TestRunsAreDeterministic(t *testing.T) {
	n, tt := 50, 10
	inputs := boolInputs(n, func(i int) bool { return i%4 == 0 })
	a, err := RunConsensus(n, tt, inputs, WithSeed(123), WithRandomCrashes(tt, 40))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunConsensus(n, tt, inputs, WithSeed(123), WithRandomCrashes(tt, 40))
	if err != nil {
		t.Fatal(err)
	}
	if !metricsEqual(a.Metrics, b.Metrics) {
		t.Fatalf("metrics not deterministic: %+v vs %+v", a.Metrics, b.Metrics)
	}
	for i := range a.Decisions {
		if a.Decisions[i] != b.Decisions[i] {
			t.Fatal("decisions not deterministic")
		}
	}
	// A different seed must change something observable (the crash
	// schedule at minimum).
	c, err := RunConsensus(n, tt, inputs, WithSeed(124), WithRandomCrashes(tt, 40))
	if err != nil {
		t.Fatal(err)
	}
	if metricsEqual(a.Metrics, c.Metrics) && equalInts(a.Crashed, c.Crashed) {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Seed-sweep safety: consensus safety must hold across many seeds and
// adversaries; this is the randomized property test backing the
// protocol invariants.
func TestConsensusSafetySeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short mode")
	}
	n, tt := 60, 12
	for seed := uint64(0); seed < 12; seed++ {
		inputs := boolInputs(n, func(i int) bool { return (uint64(i)*seed+seed)%3 == 0 })
		for _, algo := range []Algorithm{FewCrashes, ManyCrashes} {
			r, err := RunConsensus(n, tt, inputs,
				WithSeed(seed), WithAlgorithm(algo), WithRandomCrashes(tt, 60))
			if err != nil {
				t.Fatalf("seed %d algo %v: %v", seed, algo, err)
			}
			if !r.Agreement || !r.Validity {
				t.Fatalf("seed %d algo %v: agreement=%v validity=%v",
					seed, algo, r.Agreement, r.Validity)
			}
		}
	}
}

// metricsEqual compares two Metrics including the per-part breakdown.
func metricsEqual(a, b Metrics) bool {
	if a.Rounds != b.Rounds || a.Messages != b.Messages ||
		a.Bits != b.Bits || a.ByzMessages != b.ByzMessages {
		return false
	}
	if len(a.PerPart) != len(b.PerPart) {
		return false
	}
	for k, v := range a.PerPart {
		if b.PerPart[k] != v {
			return false
		}
	}
	return true
}
