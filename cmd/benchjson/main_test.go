package main

import (
	"strings"
	"testing"
)

// atFloors returns the gated points as pairs whose speedups sit exactly
// at the floor each is asked for.
func atFloors() []pair {
	var pairs []pair
	for _, pt := range points() {
		p := pair{Name: pt.name, Lanes: len(pt.specs), Cap: pt.cap, Speedup: floor}
		if pt.cap > 0 && pt.cap < floor {
			p.Speedup = pt.cap
		}
		pairs = append(pairs, p)
	}
	return pairs
}

func TestJudge(t *testing.T) {
	pairs := atFloors()
	if len(pairs) != 3 {
		t.Fatalf("%d gated points, want 3 (flooding, crash-lane gossip, link-fault gossip)", len(pairs))
	}
	if err := judge(pairs, floor); err != nil {
		t.Fatalf("pairs at the real floors: %v", err)
	}
	for i := range pairs {
		below := atFloors()
		below[i].Speedup *= 0.99
		if err := judge(below, floor); err == nil || !strings.Contains(err.Error(), below[i].Name) {
			t.Fatalf("%s just below its floor: %v", below[i].Name, err)
		}
	}
	if err := judge(pairs, 1e9); err == nil {
		t.Fatal("impossible floor passed")
	}
	// A cap below the floor lowers it; a cap above it does not raise it.
	capped := []pair{{Name: "capped", Speedup: 1.5, Cap: 1.48}}
	if err := judge(capped, floor); err != nil {
		t.Fatalf("cap 1.48 at speedup 1.5: %v", err)
	}
	if err := judge([]pair{{Name: "uncapped", Speedup: 1.5}}, floor); err == nil {
		t.Fatal("speedup 1.5 passed floor 8 without a cap")
	}
	if err := judge([]pair{{Name: "high-cap", Speedup: 9, Cap: 20}}, floor); err != nil {
		t.Fatalf("cap 20 raised floor 8: %v", err)
	}
	if err := judge(nil, floor); err == nil {
		t.Fatal("no pairs passed")
	}
}

// TestMeasureTinyPair times one tiny real pair, each arm run once after
// its warm-up.
func TestMeasureTinyPair(t *testing.T) {
	p, err := measure(point{name: "tiny", specs: floodingSpecs(16, 2, 4), cap: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "tiny" || p.Lanes != 4 || p.Cap != 2 {
		t.Fatalf("pair %+v, want name tiny, 4 lanes, cap 2", p)
	}
	if p.ScalarMs <= 0 || p.SlicedMs <= 0 || p.Speedup != p.ScalarMs/p.SlicedMs {
		t.Fatalf("degenerate timings %+v", p)
	}
}

func TestBenchJSONBadFlags(t *testing.T) {
	for _, args := range [][]string{{"stray"}, {"-floor", "8"}, {"-quick"}} {
		if err := run(args, nil); err == nil || !strings.Contains(err.Error(), "unexpected argument") {
			t.Fatalf("%q: %v", args, err)
		}
	}
}
