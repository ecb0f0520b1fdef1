package scenario

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"lineartime/internal/expander"
)

// TestOverlayCacheParityRegistry pins that the overlay cache is
// invisible in results: every registry row — fault rows and */chaos
// rows included — under 3 seeds gives reflect.DeepEqual reports
// whether its overlays are built for the run (first sight), built and
// admitted (second sight), or shared from the cache (warm) — the warm
// runs being two concurrent ones that share one resident overlay set
// while each fills its own InquiryFamily from it. The seeds are used by
// no other test, so the first run of each spec is cold in every overlay
// whose key carries the seed. It may still hit the cache on the complete
// graphs K_n (saturated inquiry phases, the broadcast graph at n ≤ 65),
// which are one entry for all seeds — and on nothing else: which keys
// drop the seed is pinned where keys are visible, by expander's
// TestCompleteOverlaySharedAcrossSeeds; from here a hit on K_n and a
// hit on a seeded overlay look the same. Run under -race.
func TestOverlayCacheParityRegistry(t *testing.T) {
	seeds := uint64(3)
	if testing.Short() {
		seeds = 1
	}
	for row, d := range All() {
		n, tt := 50, 8
		if d.Problem == ByzantineConsensus {
			tt = 4
		}
		for seed := uint64(1); seed <= seeds; seed++ {
			sp := d.Spec(n, tt, 0xc01d0000+uint64(row)<<8+seed)
			tag := fmt.Sprintf("%s seed=%d", d.Name, seed)
			s0 := expander.Stats()
			cold, coldErr := Run(sp)
			s1 := expander.Stats()
			second, secondErr := Run(sp)
			sameOutcome(t, tag+" second sight", cold, coldErr, second, secondErr)

			// Warm: two concurrent runs share the resident overlays.
			s2 := expander.Stats()
			var reps [2]*Report
			var errs [2]error
			var wg sync.WaitGroup
			for i := range reps {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					reps[i], errs[i] = Run(sp)
				}(i)
			}
			wg.Wait()
			s3 := expander.Stats()
			if s3.Misses != s2.Misses {
				t.Fatalf("%s: warm runs built %d overlays", tag, s3.Misses-s2.Misses)
			}
			if s1.Misses > s0.Misses && s3.Hits == s2.Hits {
				t.Fatalf("%s: run builds overlays but its warm runs never hit the cache", tag)
			}
			for i := range reps {
				sameOutcome(t, fmt.Sprintf("%s warm %d", tag, i), cold, coldErr, reps[i], errs[i])
			}
		}
	}
}

// TestRunWarmAllocs guards the cold path one floor above the engine
// guards: a scenario.Run whose overlays are cached — the serve-cold
// shape, consensus/few-crashes n=256 t=50 under random crashes, a
// distinct result key over a recurring (n, t, seed) — allocates only
// its protocol objects, fault schedule and report; its send buffers
// come from the pooled slab. Before the overlay cache this run cost
// 8,826 allocs / 4.9 MB, before the slab 1,614 / 0.71 MB; it measured
// 1,060 allocs and 0.12–0.16 MB when the guard was last set: 0.11 MB
// of its own, plus ≈9 KB for each regrowth of the pooled engine arena
// and slab (≈1.9 MB, spread over the 200-run window) that a collection
// or a goroutine migration forces inside it — sync.Pool drops them.
// The ceilings are 1.25× the largest seen.
func TestRunWarmAllocs(t *testing.T) {
	const (
		maxAllocs = 1330
		maxBytes  = 200_000
	)
	sp := serveColdSpec(t, 7)
	// First sight, second sight, then one warm run to grow the pooled
	// engine arena.
	for i := 0; i < 3; i++ {
		if _, err := Run(sp); err != nil {
			t.Fatal(err)
		}
	}

	const runs = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Run(sp); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("warm run: %d allocs, %d bytes", allocs, bytes)
	if allocs > maxAllocs || (bytes > maxBytes && !raceEnabled) {
		t.Fatalf("warm run costs %d allocs / %d bytes, ceilings %d / %d", allocs, bytes, maxAllocs, maxBytes)
	}
}
