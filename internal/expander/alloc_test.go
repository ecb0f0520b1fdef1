package expander

import (
	"runtime"
	"testing"
)

// TestFreshOverlayAllocs guards what building and verifying the two
// overlays of a fault-free serve-heavy request (gossip n=128 t=24: the
// little overlay on 120 nodes, and G_1) costs the heap: allocations and
// bytes per build, averaged over 20 seeds, at most 1.25× what was
// measured when the guard was set (13 allocations for either overlay;
// 65,620 and 35,952 bytes). It calls build, not New, so the cache's
// bookkeeping stays out of the count.
func TestFreshOverlayAllocs(t *testing.T) {
	for _, c := range []struct {
		n, degree int
		allocs    float64
		bytes     uint64
	}{
		{120, 16, 13, 65620},
		{128, 8, 13, 35952},
	} {
		seed := uint64(0xa110c_0000)
		next := func() {
			seed++
			if _, _, err := build(c.n, Options{Degree: c.degree, Seed: seed}); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 20
		allocs := testing.AllocsPerRun(runs, next)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			next()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("n=%d d=%d: %.0f allocs, %d bytes per build", c.n, c.degree, allocs, bytes)
		if allocs > 1.25*c.allocs {
			t.Errorf("n=%d d=%d: %.0f allocs per build, guard %.0f", c.n, c.degree, allocs, 1.25*c.allocs)
		}
		if float64(bytes) > 1.25*float64(c.bytes) {
			t.Errorf("n=%d d=%d: %d bytes per build, guard %.0f", c.n, c.degree, bytes, 1.25*float64(c.bytes))
		}
	}
}
