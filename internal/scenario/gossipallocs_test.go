package scenario

import (
	"runtime"
	"testing"
)

// TestGossipRunAllocs guards the scalar gossip data path one floor
// above the engine guards: a scenario.Run of the serve-heavy shape —
// gossip/expander n=128 t=24, a topology seed nothing has used, so the
// overlays are built too — allocates its protocol objects, one
// snapshot per change of a node's extant or completion set, the
// overlays and the report. With bit-at-a-time merges, a clone per send
// and a slice per node per round this run cost 70.8 k allocs / 22.9 MB;
// it measured 5,662 allocs / 3.03 MB when the guard was set, and 5,138 /
// 1.97 MB before the run stopped building the overlays it never
// consults (H, and every G_i whose phase opens with nobody left to
// ask): two overlays are built now, not six, for 5,008 allocs / 0.93 MB.
// The ceilings are 1.25× that (the byte ceiling is skipped under -race,
// like TestRunWarmAllocs).
func TestGossipRunAllocs(t *testing.T) {
	const (
		maxAllocs = 6260
		maxBytes  = 1_160_000
	)
	d, ok := Lookup("gossip/expander")
	if !ok {
		t.Fatal("gossip/expander not registered")
	}
	// One run on its own seed grows the pooled engine arena.
	if _, err := Run(d.Spec(128, 24, 0x6055_0000)); err != nil {
		t.Fatal(err)
	}

	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Run(d.Spec(128, 24, 0x6055_0001+uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("fresh-seed gossip run: %d allocs, %d bytes", allocs, bytes)
	if allocs > maxAllocs || (bytes > maxBytes && !raceEnabled) {
		t.Fatalf("fresh-seed gossip run costs %d allocs / %d bytes, ceilings %d / %d", allocs, bytes, maxAllocs, maxBytes)
	}
}
