package scenario

import (
	"bytes"
	"reflect"
	"testing"
)

// arenaSpecs are runs of the two stacks whose machines live in the run
// slab. Gossip runs of two sizes, one of them with messages delayed up
// to three rounds — so that some are still parked in the engine's
// delay ring, pointing into the run slab, when the run ends — and one
// over lossy links; few-crashes runs of two sizes under random crashes,
// the second with other inputs.
func arenaSpecs(t testing.TB) []Spec {
	t.Helper()
	few := func(n, tt int, seed uint64, fault string) Spec {
		sp := MustLookup("consensus/few-crashes").Spec(n, tt, seed)
		var err error
		if sp.Fault, err = ParseFault(fault); err != nil {
			t.Fatal(err)
		}
		return sp
	}
	other := few(64, 12, 0xa7e4_0006, "random-crashes:count=12,horizon=30,seed=6")
	for i := range other.BoolInputs {
		other.BoolInputs[i] = i%4 != 1
	}
	return []Spec{
		MustLookup("gossip/expander").Spec(128, 24, 0xa7e4_0001),
		MustLookup("gossip/expander/chaos").Spec(64, 12, 0xa7e4_0002),
		MustLookup("gossip/expander/omission").Spec(128, 24, 0xa7e4_0003),
		few(256, 50, 0xa7e4_0005, "random-crashes:count=50,horizon=64,seed=5"),
		other,
	}
}

// runOnSlab runs sp on the slab s and returns its report. It leaves s
// alone in the pool and runs until a run provably took it — the pool
// holds s and nothing else afterwards — because sync.Pool hides a put
// from a goroutine that moved to another P, and drops a quarter of its
// puts under -race.
func runOnSlab(t *testing.T, s *runSlab, sp Spec) *Report {
	t.Helper()
	for try := 0; try < 50; try++ {
		drainRunSlabs()
		runSlabs.Put(s)
		rep, err := Run(sp)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if got := drainRunSlabs(); len(got) == 1 && got[0] == s {
			return rep
		}
	}
	t.Fatalf("%s: no run took the slab in 50 tries", sp.Name)
	return nil
}

// TestRunArenaLifetime: the pooled run slab outlives its runs. Gossip
// and few-crashes runs go back to back on one slab — gossip at n=128,
// then n=64 with delayed messages, then n=128 over lossy links, then
// few-crashes at n=256 and at n=64 with other inputs, then the whole
// sequence once more — and each reports byte for byte what the same
// spec reports on a slab nobody used, and every report kept from an
// earlier run is still DeepEqual to that one. A slab that kept a cut,
// a machine, a snapshot or a count from the run before, a machine that
// read memory the previous run released, or a report that aliases the
// slab would show here.
func TestRunArenaLifetime(t *testing.T) {
	specs := arenaSpecs(t)
	want := make([]*Report, len(specs))
	wantJSON := make([][]byte, len(specs))
	for i, sp := range specs {
		drainRunSlabs() // the run borrows a fresh slab
		var err error
		if want[i], err = Run(sp); err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if wantJSON[i], err = want[i].AppendJSON(nil); err != nil {
			t.Fatal(err)
		}
	}
	slab := &runSlab{}
	var kept []*Report
	for round := 0; round < 2; round++ {
		for i, sp := range specs {
			rep := runOnSlab(t, slab, sp)
			got, err := rep.AppendJSON(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantJSON[i]) {
				t.Fatalf("%s (n=%d) on a reused slab reports\n%s\non a fresh one\n%s", sp.Name, sp.N, got, wantJSON[i])
			}
			kept = append(kept, rep)
			for j, old := range kept {
				if k := j % len(specs); !reflect.DeepEqual(old, want[k]) {
					t.Fatalf("the report of %s (n=%d) kept from an earlier run changed when %s (n=%d) reused its slab", specs[k].Name, specs[k].N, sp.Name, sp.N)
				}
			}
		}
	}
}

// TestObservedPayloadsOutliveLaterRuns: an observed run keeps its slab,
// so a payload its observer holds reads the same after later runs have
// borrowed, grown and released pooled slabs.
func TestObservedPayloadsOutliveLaterRuns(t *testing.T) {
	sp := MustLookup("gossip/expander/chaos").Spec(64, 12, 0xa7e4_0004)
	w := newSnapshotWatch()
	sp.Observer = w
	if _, err := Run(sp); err != nil {
		t.Fatal(err)
	}
	if len(w.extant) == 0 || len(w.completion) == 0 {
		t.Fatalf("the observer saw %d extant and %d completion snapshots", len(w.extant), len(w.completion))
	}
	for _, later := range arenaSpecs(t) {
		reportJSON(t, later.Name, later)
	}
	w.verify(t, "after later runs")
}
