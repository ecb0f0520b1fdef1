package scenario

import (
	"fmt"
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
// its topology, fault schedule and report; its machines and their send
// buffers come from the pooled slab. Before the overlay cache this run
// cost 8,826 allocs / 4.9 MB, before the slab 1,614 / 0.71 MB, and
// 1,060 / 0.12–0.16 MB (a mean over 200 runs, pool regrowths included)
// with only the send buffers in the slab. Cutting the machines from the
// slab too — each one object, holding its AEA, SCV and probing
// automaton by value — and sizing the crash schedule's event list once
// took it to 41 allocs and 24,816 bytes. Holding the lazy H in the
// topology by value rather than in a sync.OnceValues closure, sending
// AEA's Part 3 without collecting the related nodes into a slice, and
// labelling rounds from a part table made once per size took it to 26
// allocs and 24,616 bytes. The run is measured 21 times
// and the median guarded, like TestGossipRunAllocs (runCosts: the
// fewest allocations under -race, where the byte ceiling is skipped),
// since a mean now mostly counts the pools' regrowths. The ceilings are
// 1.25× the largest seen (26 allocs; 24,696 bytes under -race).
func TestRunWarmAllocs(t *testing.T) {
	const (
		maxAllocs = 32
		maxBytes  = 30_870
	)
	sp := serveColdSpec(t, 7)
	// First sight, second sight, then one warm run to grow the pooled
	// engine arena and run slab.
	for i := 0; i < 3; i++ {
		if _, err := Run(sp); err != nil {
			t.Fatal(err)
		}
	}

	allocs, bytes := runCosts(t, 21, func(int) {
		if _, err := Run(sp); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm run: %d allocs, %d bytes", allocs, bytes)
	if allocs > maxAllocs || (bytes > maxBytes && !raceEnabled) {
		t.Fatalf("warm run costs %d allocs / %d bytes, ceilings %d / %d", allocs, bytes, maxAllocs, maxBytes)
	}
}
