package scenario

import (
	"bytes"
	"testing"
)

// arenaSpecs are gossip runs of two sizes, one of them with messages
// delayed up to three rounds — so that some are still parked in the
// engine's delay ring, pointing into the run slab, when the run ends —
// and one over lossy links.
func arenaSpecs() []Spec {
	return []Spec{
		MustLookup("gossip/expander").Spec(128, 24, 0xa7e4_0001),
		MustLookup("gossip/expander/chaos").Spec(64, 12, 0xa7e4_0002),
		MustLookup("gossip/expander/omission").Spec(128, 24, 0xa7e4_0003),
	}
}

// runOnSlab runs sp on the slab s and returns its report's wire bytes.
// It leaves s alone in the pool and runs until a run provably took it —
// the pool holds s and nothing else afterwards — because sync.Pool
// hides a put from a goroutine that moved to another P, and drops a
// quarter of its puts under -race.
func runOnSlab(t *testing.T, s *runSlab, sp Spec) []byte {
	t.Helper()
	for try := 0; try < 50; try++ {
		drainRunSlabs()
		runSlabs.Put(s)
		b := reportJSON(t, sp.Name, sp)
		if got := drainRunSlabs(); len(got) == 1 && got[0] == s {
			return b
		}
	}
	t.Fatalf("%s: no run took the slab in 50 tries", sp.Name)
	return nil
}

// TestRunArenaLifetime: the pooled run slab outlives its runs. Gossip
// runs go back to back on one slab — n=128, then n=64 with delayed
// messages, then n=128 over lossy links, then the whole sequence once
// more — and each reports byte for byte what the same spec reports on
// a slab nobody used. A slab that kept a cut, a snapshot or a count
// from the run before, or a machine that read memory the previous run
// released, would show here.
func TestRunArenaLifetime(t *testing.T) {
	specs := arenaSpecs()
	want := make([][]byte, len(specs))
	for i, sp := range specs {
		drainRunSlabs() // the run borrows a fresh slab
		want[i] = reportJSON(t, sp.Name, sp)
	}
	slab := &runSlab{}
	for round := 0; round < 2; round++ {
		for i, sp := range specs {
			if got := runOnSlab(t, slab, sp); !bytes.Equal(got, want[i]) {
				t.Fatalf("%s (n=%d) on a reused slab reports\n%s\non a fresh one\n%s", sp.Name, sp.N, got, want[i])
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
	for _, later := range arenaSpecs() {
		reportJSON(t, later.Name, later)
	}
	w.verify(t, "after later runs")
}
