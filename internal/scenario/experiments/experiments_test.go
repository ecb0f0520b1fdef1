package experiments

import (
	"strings"
	"testing"
)

// TestExperimentIndexGolden pins the experiment enumeration: the ids
// and titles of EXPERIMENTS.md, in order. cmd/sweep renders exactly
// this list, so a dropped experiment fails here.
func TestExperimentIndexGolden(t *testing.T) {
	want := []string{"E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "T1"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d is %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" {
			t.Errorf("experiment %s has no title", e.ID)
		}
	}
}

// TestExperimentSectionsWellFormed materializes every experiment's
// quick sections without running any point: headers, separators and
// points must be present, and quick mode must not enumerate more
// points than the full mode.
func TestExperimentSectionsWellFormed(t *testing.T) {
	for _, e := range All() {
		quick := e.Sections(true)
		full := e.Sections(false)
		if len(quick) == 0 || len(quick) != len(full) {
			t.Errorf("%s: %d quick sections vs %d full", e.ID, len(quick), len(full))
			continue
		}
		for i, sec := range quick {
			if sec.Header == "" || sec.Sep == "" {
				t.Errorf("%s section %d: missing header or separator", e.ID, i)
			}
			if !strings.HasPrefix(sec.Header, "|") || !strings.HasPrefix(sec.Sep, "|") {
				t.Errorf("%s section %d: header/sep are not markdown table rows", e.ID, i)
			}
			if len(sec.Points) == 0 {
				t.Errorf("%s section %d: no points", e.ID, i)
			}
			if len(sec.Points) > len(full[i].Points) {
				t.Errorf("%s section %d: quick has more points (%d) than full (%d)",
					e.ID, i, len(sec.Points), len(full[i].Points))
			}
		}
	}
}

func TestSizesHelper(t *testing.T) {
	full := sizes(false, 1, 2, 3, 4)
	if len(full) != 4 {
		t.Fatalf("full sizes = %v", full)
	}
	quick := sizes(true, 1, 2, 3, 4)
	if len(quick) != 2 {
		t.Fatalf("quick sizes = %v", quick)
	}
}

func TestTable1RowsCoverThePaperTable(t *testing.T) {
	if len(table1) != 7 {
		t.Fatalf("table1 has %d rows, want 7", len(table1))
	}
	crash, byz := 0, 0
	for _, rw := range table1 {
		switch rw.faultType {
		case "crash":
			crash++
		case "auth. Byzantine":
			byz++
		default:
			t.Errorf("unexpected fault type %q", rw.faultType)
		}
	}
	if crash != 6 || byz != 1 {
		t.Fatalf("fault-type split = %d crash / %d byzantine, want 6/1", crash, byz)
	}
}

func TestBoundary(t *testing.T) {
	if got := boundary(1024, 1); got != 102 {
		t.Fatalf("boundary(1024,1) = %d, want 102", got)
	}
	if got := boundary(1024, 2); got != 10 {
		t.Fatalf("boundary(1024,2) = %d, want 10", got)
	}
}

// TestOnePointPerProblemRuns executes one small sweep point from each
// problem family (consensus E4 is exercised by the cmd/sweep
// equivalence test at full width; here the cheapest row of E3 and E5
// guards the registry wiring end to end, and E12's first point guards
// the link-fault rows).
func TestOnePointPerProblemRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment points skipped in -short mode")
	}
	for _, id := range []string{"E3", "E5", "E12", "E13"} {
		for _, e := range All() {
			if e.ID != id {
				continue
			}
			secs := e.Sections(true)
			row, err := secs[0].Points[0].Run()
			if err != nil {
				t.Fatalf("%s point 0: %v", id, err)
			}
			if !strings.HasPrefix(row, "|") {
				t.Fatalf("%s point 0 produced a non-table row: %q", id, row)
			}
		}
	}
}
