package consensus

import (
	"slices"
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
	rel := slices.Collect(Related(3, tp.L, tp.N))
	if len(rel) != 1 || rel[0] != 53 {
		t.Fatalf("Related(3) = %v, want [53]", rel)
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
		for j := range Related(i, tp.L, tp.N) {
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

// TestPartTablesTileTheirSchedules requires every part table to cover
// its algorithm's rounds in order — each span non-empty, the last
// ending where the schedule does, no bound negative — and to label the
// rounds as the boundaries the machines branch on divide them.
func TestPartTablesTileTheirSchedules(t *testing.T) {
	for _, pt := range [][3]int{{60, 10, 0}, {60, 0, 0}, {12, 2, 0}, {17, 3, 0}, {60, 9, 7}, {200, 40, 0}} {
		s := NewSchedule(pt[0], pt[1], pt[2])
		tables := []struct {
			name  string
			parts Parts
			end   int
		}{
			{"aea", s.AEAParts(), s.AEA}, {"scv", s.SCVParts(), s.SCV},
			{"few", s.FewParts(), s.Few}, {"vector", s.VectorParts(), s.Few},
			{"many", s.ManyParts(), s.Many}, {"gossip", s.GossipParts(), s.Gossip},
			{"checkpoint", s.CheckpointParts(), s.Checkpoint}, {"single-port", s.SPParts(), s.SP},
		}
		for _, tb := range tables {
			start := 0
			for _, p := range tb.parts {
				if p.End <= start || p.Bound < 0 {
					t.Fatalf("%v %s: part %+v after round %d", pt, tb.name, p, start)
				}
				start = p.End
			}
			if start != tb.end || tb.parts.End() != tb.end {
				t.Fatalf("%v %s: parts end at %d, the schedule at %d", pt, tb.name, start, tb.end)
			}
			if l := tb.parts.Label(tb.end); l != "" {
				t.Fatalf("%v %s: round %d past the end labelled %q", pt, tb.name, tb.end, l)
			}
		}
		few := s.FewParts()
		for r, want := range map[int]string{0: "aea/flood", s.AEAFlood: "aea/probing", s.AEA - 1: "aea/notify",
			s.AEA: "scv/broadcast", s.FewBroadcast: "scv/inquiry", s.Few - 1: "scv/inquiry"} {
			if got := few.Label(r); got != want {
				t.Fatalf("%v: few-crashes round %d labelled %q, want %q", pt, r, got, want)
			}
		}
		gossip, checkpoint := s.GossipParts(), s.CheckpointParts()
		for r := range s.Gossip {
			part, _, off := s.GossipAt(r)
			want := "p1/inquiry"
			switch {
			case part == 1 && off >= 2:
				want = "p1/probing"
			case part == 2 && off == 0:
				want = "p2/push"
			case part == 2:
				want = "p2/probing"
			}
			if got := gossip.Label(r); got != want || checkpoint.Label(r) != "gossip/"+want {
				t.Fatalf("%v: gossip round %d (part %d, offset %d) labelled %q, want %q", pt, r, part, off, got, want)
			}
		}
		sp := s.SPParts()
		for r := range s.SP {
			seg, _ := s.SPAt(r)
			if got, want := sp.Label(r), sp[seg-1].Name; got != want {
				t.Fatalf("%v: single-port round %d (segment %d) labelled %q, want %q", pt, r, seg, got, want)
			}
		}
	}
}
