package scenario

import (
	"runtime"
	"slices"
	"testing"
)

// TestGossipRunAllocs guards the scalar gossip data path one floor
// above the engine guards: a scenario.Run of the serve-heavy shape —
// gossip/expander n=128 t=24, a topology seed nothing has used, so the
// overlays are built too — allocates the overlays, the topology and
// the report; its machines and every payload they send come from the
// pooled run slab. With bit-at-a-time merges, a clone per send
// and a slice per node per round this run cost 70.8 k allocs / 22.9 MB;
// it measured 5,662 allocs / 3.03 MB when the guard was set, and 5,138 /
// 1.97 MB before the run stopped building the overlays it never
// consults (H, and every G_i whose phase opens with nobody left to
// ask): two overlays are built now, not six, for 5,008 allocs / 0.93 MB.
// Snapshots that share their sender's rumor array and rumor arrays and
// send buffers cut from a pooled slab took it to 3,782 allocs / 0.30 MB.
// Cutting the machines, their sets, inquirer lists and every snapshot
// from the slab too, and reusing the overlay builds' pairing scratch,
// took it to 58 allocs / 63,192 bytes, and holding the lazy H in the
// topology by value, with rounds labelled from a part table made once
// per size, to 48 allocs / 63,040 bytes. The run is measured 21 times
// and the median guarded (the fewest allocations under -race; see
// runCosts). The ceilings are 1.25× the allocs and 1.15× the bytes (the
// byte ceiling is skipped under -race, like TestRunWarmAllocs).
func TestGossipRunAllocs(t *testing.T) {
	const (
		maxAllocs = 60
		maxBytes  = 72_496
	)
	d, ok := Lookup("gossip/expander")
	if !ok {
		t.Fatal("gossip/expander not registered")
	}
	// One run on its own seed grows the pooled engine arena and run slab.
	if _, err := Run(d.Spec(128, 24, 0x6055_0000)); err != nil {
		t.Fatal(err)
	}

	const runs = 21
	allocs, bytes := runCosts(t, runs, func(i int) {
		if _, err := Run(d.Spec(128, 24, 0x6055_0001+uint64(i))); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("fresh-seed gossip run: %d allocs, %d bytes", allocs, bytes)
	if allocs > maxAllocs || (bytes > maxBytes && !raceEnabled) {
		t.Fatalf("fresh-seed gossip run costs %d allocs / %d bytes, ceilings %d / %d", allocs, bytes, maxAllocs, maxBytes)
	}
}

// runCosts calls run(0), …, run(runs-1) and returns the median of the
// allocations and the median of the bytes each call made. A run whose
// pooled memory was dropped — sync.Pool empties on a collection and
// loses what a goroutine leaves on another P — pays for the pool's
// regrowth once; the median is a run that found the pools warm. Under
// -race sync.Pool also drops a quarter of its puts at random, so even
// the median run may rebuild one; there the allocations returned are
// the fewest, those of a run that found every pool warm.
func runCosts(t *testing.T, runs int, run func(i int)) (allocs, bytes uint64) {
	t.Helper()
	a, b := make([]uint64, runs), make([]uint64, runs)
	var before, after runtime.MemStats
	for i := range runs {
		runtime.ReadMemStats(&before)
		run(i)
		runtime.ReadMemStats(&after)
		a[i], b[i] = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	}
	slices.Sort(a)
	slices.Sort(b)
	if raceEnabled {
		return a[0], b[runs/2]
	}
	return a[runs/2], b[runs/2]
}
