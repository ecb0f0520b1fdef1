package expander

import (
	"sync"
	"testing"
)

// The cache tests run on private instances so budgets can be small and
// counters start at zero; New's process-wide instance is the same type.

func mustGet(t *testing.T, c *cache, n int, opts Options) *Overlay {
	t.Helper()
	o, err := c.get(n, opts)
	if err != nil {
		t.Fatalf("get(%d, %+v): %v", n, opts, err)
	}
	return o
}

// regularBytes is the footprint of a materialized d-regular overlay on
// n vertices: the graph header, n slice headers, n·d adjacency words.
func regularBytes(n, d int) int64 { return int64(32 + 24*n + 8*n*d) }

func TestCacheAdmitsOnSecondSight(t *testing.T) {
	c := newCache(1 << 20)
	opts := Options{Degree: 8, Seed: 3}

	first := mustGet(t, c, 64, opts)
	if st := c.stats(); st.Entries != 0 || st.Bytes != 0 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("first sight retained something: %+v", st)
	}
	if len(c.ghosts) != 1 || len(c.entries) != 0 {
		t.Fatalf("first sight left %d ghosts, %d table entries", len(c.ghosts), len(c.entries))
	}

	second := mustGet(t, c, 64, opts)
	want := regularBytes(64, 8) + entryOverhead
	if st := c.stats(); st.Entries != 1 || st.Bytes != want || st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("second sight: %+v, want 1 entry of %d bytes after 2 builds", st, want)
	}
	if second.G.Bytes() != regularBytes(64, 8) {
		t.Fatalf("Graph.Bytes = %d, want %d", second.G.Bytes(), regularBytes(64, 8))
	}
	if len(c.ghosts) != 0 {
		t.Fatalf("admitted key still a ghost")
	}

	third := mustGet(t, c, 64, opts)
	if third != second {
		t.Fatal("hit returned a different overlay than the one admitted")
	}
	if st := c.stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("after hit: %+v", st)
	}
	// A cached overlay is the value the constructor returns.
	if first.Seed != third.Seed || first.Lambda != third.Lambda || first.P != third.P {
		t.Fatalf("cached verdict differs from a fresh build: %+v vs %+v", first, third)
	}
	for v := 0; v < 64; v++ {
		a, b := first.Neighbors(v), third.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d: degree %d vs %d", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d: adjacency differs", v)
			}
		}
	}
}

func TestCacheKeyNormalizesDefaults(t *testing.T) {
	c := newCache(1 << 20)
	mustGet(t, c, 64, Options{Seed: 9})
	spelled := Options{Seed: 9, Degree: DefaultDegree, Slack: DefaultSlack, MaxSeedRotations: defaultSeedRotations}
	a := mustGet(t, c, 64, spelled)
	if b := mustGet(t, c, 64, Options{Seed: 9}); a != b {
		t.Fatal("default and spelled-out options did not share an entry")
	}
	if st := c.stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	// Fields that change the returned value separate keys.
	if d := mustGet(t, c, 64, Options{Seed: 9, Delta: 2}); d == a {
		t.Fatal("Delta ignored by the key")
	}
}

func TestCacheEvictsLeastRecentlyUsedWithinBudget(t *testing.T) {
	per := regularBytes(64, 8) + entryOverhead
	c := newCache(3*per + per/2) // room for three
	admit := func(seed uint64) *Overlay {
		mustGet(t, c, 64, Options{Degree: 8, Seed: seed})
		return mustGet(t, c, 64, Options{Degree: 8, Seed: seed})
	}
	resident := func(seed uint64) bool {
		_, ok := c.entries[keyOf(64, Options{Degree: 8, Seed: seed})]
		return ok
	}
	admit(1)
	admit(2)
	admit(3)
	mustGet(t, c, 64, Options{Degree: 8, Seed: 1}) // 2 is now the coldest
	admit(4)
	if !resident(1) || resident(2) || !resident(3) || !resident(4) {
		t.Fatalf("resident 1..4 = %v %v %v %v, want the untouched seed 2 evicted",
			resident(1), resident(2), resident(3), resident(4))
	}
	if st := c.stats(); st.Evictions != 1 || st.Entries != 3 || st.Bytes != 3*per {
		t.Fatalf("after one eviction: %+v", st)
	}

	// Churn: many recurring keys through a cache that holds three.
	for seed := uint64(10); seed < 60; seed++ {
		admit(seed)
		st := c.stats()
		if st.Bytes > st.Capacity {
			t.Fatalf("seed %d: %d bytes resident over a budget of %d", seed, st.Bytes, st.Capacity)
		}
		if st.Bytes != st.Entries*per {
			t.Fatalf("seed %d: %d bytes for %d entries of %d", seed, st.Bytes, st.Entries, per)
		}
	}
	if st := c.stats(); st.Evictions != 51 || st.Entries != 3 {
		t.Fatalf("after churn: %+v", st)
	}
	if len(c.entries) != 3 {
		t.Fatalf("table holds %d entries for 3 resident overlays", len(c.entries))
	}
}

func TestCacheSkipsOverlaysLargerThanBudget(t *testing.T) {
	c := newCache(1024)
	mustGet(t, c, 64, Options{Degree: 8, Seed: 1})
	mustGet(t, c, 64, Options{Degree: 8, Seed: 1})
	if st := c.stats(); st.Entries != 0 || st.Bytes != 0 || st.Evictions != 0 {
		t.Fatalf("oversized overlay retained: %+v", st)
	}
	if len(c.entries) != 0 {
		t.Fatal("oversized overlay left in the table")
	}
}

func TestCacheGhostsBounded(t *testing.T) {
	c := newCache(1 << 20)
	for seed := uint64(0); seed < maxGhosts+200; seed++ {
		// A tiny dense overlay: its build skips the spectral gate, and
		// unlike K_n its key keeps the seed.
		mustGet(t, c, 16, Options{Degree: 4, Seed: seed})
		if len(c.ghosts) > maxGhosts {
			t.Fatalf("%d ghosts after %d distinct keys", len(c.ghosts), seed+1)
		}
	}
	if st := c.stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("never-repeating keys retained overlays: %+v", st)
	}
	if len(c.entries) != 0 {
		t.Fatalf("table holds %d entries", len(c.entries))
	}
}

// TestCompleteOverlaySharedAcrossSeeds: on the n ≤ degree+1 branch the
// overlay is K_n whatever the seed, slack, rotations, SkipVerify or
// saturated degree say, so all of those spellings share one entry —
// built twice (second-sight admission), charged once — while δ, which
// the overlay's Params carry, still separates keys, and an oversize K_n
// is still never admitted.
func TestCompleteOverlaySharedAcrossSeeds(t *testing.T) {
	const n = 48
	c := newCache(1 << 20)
	first := mustGet(t, c, n, Options{Degree: 64, Seed: 1})
	second := mustGet(t, c, n, Options{Degree: n - 1, Seed: 2})
	spellings := []Options{
		{Degree: 64, Seed: 1},
		{Degree: 256, Seed: 3, Slack: 0.5, MaxSeedRotations: 4, SkipVerify: true},
		{Degree: n - 1, Seed: 4},
	}
	for _, opts := range spellings {
		if o := mustGet(t, c, n, opts); o != second || o.G != second.G {
			t.Fatalf("%+v got its own K_%d", opts, n)
		}
	}
	if first.Seed != 0 || second.Seed != 0 || second.Lambda != 1 || second.P != first.P || second.P.Degree != n-1 {
		t.Fatalf("K_%d verdict depends on who asked: %+v vs %+v", n, first, second)
	}
	want := regularBytes(n, n-1) + entryOverhead
	if st := c.stats(); st.Entries != 1 || st.Bytes != want || st.Misses != 2 || st.Hits != int64(len(spellings)) {
		t.Fatalf("K_%d under %d spellings: %+v, want one entry of %d bytes after 2 builds", n, 2+len(spellings), st, want)
	}
	if d := mustGet(t, c, n, Options{Degree: 64, Seed: 1, Delta: 3}); d == second || d.P.Delta != 3 {
		t.Fatal("Delta ignored by the complete-graph key")
	}
	// Two seeds share an overlay exactly on the complete-graph branch: a
	// fresh seed can hit the cache on K_n and on nothing else.
	for _, n := range []int{5, 17, 18, 48, 65, 66} {
		for _, degree := range []int{0, 4, 64} {
			d := degree
			if d == 0 {
				d = DefaultDegree
			}
			grid := newCache(1 << 20)
			mustGet(t, grid, n, Options{Degree: degree, Seed: 1})
			a := mustGet(t, grid, n, Options{Degree: degree, Seed: 1})
			b := mustGet(t, grid, n, Options{Degree: degree, Seed: 2})
			if shared := a == b; shared != (n <= d+1) {
				t.Fatalf("n=%d degree=%d: seeds 1 and 2 share an overlay: %v", n, degree, shared)
			}
		}
	}

	small := newCache(1024)
	for seed := uint64(1); seed <= 3; seed++ {
		mustGet(t, small, n, Options{Degree: 64, Seed: seed})
	}
	if st := small.stats(); st.Entries != 0 || st.Bytes != 0 || st.Hits != 0 || len(small.entries) != 0 {
		t.Fatalf("oversize K_%d retained: %+v", n, st)
	}
}

func TestCacheDoesNotRememberErrors(t *testing.T) {
	c := newCache(1 << 20)
	for i := 0; i < 2; i++ {
		if _, err := c.get(0, Options{}); err == nil {
			t.Fatal("n=0 accepted")
		}
	}
	if len(c.entries) != 0 || len(c.ghosts) != 0 {
		t.Fatalf("failed builds left %d entries, %d ghosts", len(c.entries), len(c.ghosts))
	}
}

// TestCacheRequestDuringBuildIsSecondSight plays the owner of a first-
// sight build by hand: a request that arrives before the owner settles
// shares the entry's one build and makes the key recur, so the overlay
// is admitted without a second construction.
func TestCacheRequestDuringBuildIsSecondSight(t *testing.T) {
	c := newCache(1 << 20)
	opts := Options{Degree: 8, Seed: 21}
	key := keyOf(64, opts)
	e := &cacheEntry{key: key}
	c.entries[key] = e // what get leaves behind while its build runs

	o := mustGet(t, c, 64, opts)
	if !e.recurred {
		t.Fatal("joining request did not mark the key as recurring")
	}
	e.once.Do(func() { t.Fatal("owner built after a joiner already had") })
	c.settle(e)
	if st := c.stats(); st.Entries != 1 || st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("after settle: %+v", st)
	}
	if again := mustGet(t, c, 64, opts); again != o {
		t.Fatal("resident overlay is not the shared build")
	}
}

// TestCacheConcurrentRequestsBuildOnce releases many goroutines on one
// key at its second sight: exactly one of them builds, all receive that
// build, and it is resident afterwards. Run under -race.
func TestCacheConcurrentRequestsBuildOnce(t *testing.T) {
	c := newCache(8 << 20)
	opts := Options{Seed: 11}
	mustGet(t, c, 1024, opts) // first sight

	const workers = 16
	got := make([]*Overlay, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			got[w], errs[w] = c.get(1024, opts)
		}(w)
	}
	close(start)
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if got[w] != got[0] {
			t.Fatalf("worker %d received its own overlay", w)
		}
	}
	if st := c.stats(); st.Misses != 2 || st.Hits != workers-1 || st.Entries != 1 {
		t.Fatalf("%d concurrent requests: %+v, want one build shared by all", workers, st)
	}
}
