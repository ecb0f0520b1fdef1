package consensus

import (
	"testing"

	"lineartime/internal/expander"
)

func TestNewTopologyValidation(t *testing.T) {
	if _, err := NewTopology(1, 0, TopologyOptions{}); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := NewTopology(10, 3, TopologyOptions{}); err == nil {
		t.Fatal("5t > n accepted")
	}
	if _, err := NewTopology(10, -1, TopologyOptions{}); err == nil {
		t.Fatal("negative t accepted")
	}
	tp, err := NewTopology(100, 20, TopologyOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tp.L != 100 {
		t.Fatalf("L = %d, want 100 for t = n/5", tp.L)
	}
}

func TestTopologyLittleNodes(t *testing.T) {
	tp, err := NewTopology(100, 10, TopologyOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tp.L != 50 {
		t.Fatalf("L = %d, want 50", tp.L)
	}
	if !tp.IsLittle(49) || tp.IsLittle(50) {
		t.Fatal("IsLittle boundary wrong")
	}
	rel := tp.RelatedOf(3)
	if len(rel) != 1 || rel[0] != 53 {
		t.Fatalf("RelatedOf(3) = %v, want [53]", rel)
	}
	if tp.LittleOf(53) != 3 {
		t.Fatalf("LittleOf(53) = %d, want 3", tp.LittleOf(53))
	}
}

func TestTopologyDegenerateT(t *testing.T) {
	tp, err := NewTopology(50, 0, TopologyOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tp.L < 5 {
		t.Fatalf("L = %d, want ≥ 5 even for t=0", tp.L)
	}
}

func TestRelatedPartition(t *testing.T) {
	// Every non-little node is related to exactly one little node, and
	// the related sets partition the non-little nodes.
	tp, err := NewTopology(103, 10, TopologyOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for i := 0; i < tp.L; i++ {
		for _, j := range tp.RelatedOf(i) {
			seen[j]++
			if tp.LittleOf(j) != i {
				t.Fatalf("LittleOf(%d) = %d, want %d", j, tp.LittleOf(j), i)
			}
		}
	}
	for j := tp.L; j < tp.N; j++ {
		if seen[j] != 1 {
			t.Fatalf("node %d covered %d times, want 1", j, seen[j])
		}
	}
}

func TestSCVScheduleBranches(t *testing.T) {
	// t² ≤ n → no G_i phases, only the fallback.
	if got := NewSchedule(100, 8, 0).SCVPhases; got != 0 {
		t.Fatalf("t²≤n phases = %d, want 0", got)
	}
	// t² > n → ⌈lg(t+1)⌉ phases.
	big := NewSchedule(600, 120, 0)
	if got := big.SCVPhases; got != 7 { // ceil(lg 121)
		t.Fatalf("t²>n phases = %d, want 7", got)
	}
	if big.SCVBroadcast < 1 {
		t.Fatal("SCV part 1 empty")
	}
}

func TestNewManyTopologyValidation(t *testing.T) {
	if _, err := NewManyTopology(1, 0, TopologyOptions{}); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := NewManyTopology(10, 10, TopologyOptions{}); err == nil {
		t.Fatal("t=n accepted")
	}
	mt, err := NewManyTopology(64, 63, TopologyOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mt.Overlay.P.Degree < expander.DefaultDegree {
		t.Fatalf("degree %d too small for α≈1", mt.Overlay.P.Degree)
	}
	if mt.Schedule.Many-mt.Schedule.ManyProbe < 2 {
		t.Fatal("no inquiry phases")
	}
}
