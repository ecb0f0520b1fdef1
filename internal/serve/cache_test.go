package serve

import (
	"fmt"
	"sync"
	"testing"
)

// oneShard builds a single-shard cache so eviction order is fully
// deterministic in tests.
func oneShard(budget int64) *Cache { return NewCache(budget, 1) }

// fits returns a budget that holds exactly count entries of the given
// key/value sizes.
func fits(count, keyLen, valLen int) int64 {
	return int64(count) * int64(keyLen+valLen+entryOverhead)
}

func TestCacheLRUEvictionOrder(t *testing.T) {
	c := oneShard(fits(2, 1, 8))
	val := make([]byte, 8)
	c.Put("a", val)
	c.Put("b", val)
	c.Put("c", val) // evicts a, the least recently used
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived past the budget")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted out of order", k)
		}
	}

	// A Get refreshes recency: after touching b, inserting d must evict
	// c instead.
	c.Get("b")
	c.Put("d", val)
	if _, ok := c.Get("c"); ok {
		t.Fatal("c survived though b was more recently used")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("recently-used b was evicted")
	}

	st := stats(c)
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	if st.Entries != 2 || st.Bytes > st.Capacity {
		t.Fatalf("stats out of budget: %+v", st)
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := oneShard(1 << 20)
	c.Get("x")              // miss
	c.Put("x", []byte("v")) //
	c.Get("x")              // hit
	c.Get("x")              // hit
	c.Get("y")              // miss
	st := stats(c)
	if st.Hits != 2 || st.Misses != 2 || st.Evictions != 0 {
		t.Fatalf("counters = %+v, want hits=2 misses=2 evictions=0", st)
	}
}

func TestCachePutOverwriteAdjustsBytes(t *testing.T) {
	c := oneShard(1 << 20)
	c.Put("k", make([]byte, 100))
	before := stats(c).Bytes
	c.Put("k", make([]byte, 10))
	after := stats(c)
	if after.Entries != 1 {
		t.Fatalf("entries = %d after overwrite, want 1", after.Entries)
	}
	if after.Bytes != before-90 {
		t.Fatalf("bytes = %d after shrinking overwrite, want %d", after.Bytes, before-90)
	}
	got, ok := c.Get("k")
	if !ok || len(got) != 10 {
		t.Fatalf("overwrite not visible: ok=%v len=%d", ok, len(got))
	}
}

func TestCacheRejectsOversizedValue(t *testing.T) {
	c := oneShard(fits(1, 1, 8))
	c.Put("a", make([]byte, 8))
	c.Put("z", make([]byte, 1024)) // larger than the whole shard budget
	if _, ok := c.Get("z"); ok {
		t.Fatal("oversized value was admitted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("oversized Put flushed the resident entry")
	}
}

// TestCacheShardedBudget checks the byte budget holds under concurrent
// mixed traffic across shards.
func TestCacheShardedBudget(t *testing.T) {
	c := NewCache(1<<14, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i)
				c.Put(k, make([]byte, 64))
				c.Get(k)
				c.Get(fmt.Sprintf("w%d-k%d", w, i/2))
			}
		}(w)
	}
	wg.Wait()
	st := stats(c)
	if st.Bytes > st.Capacity {
		t.Fatalf("bytes %d exceed capacity %d", st.Bytes, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Fatal("workload was sized to force evictions, saw none")
	}
}

// CacheStats is a point-in-time snapshot of a cache's counters.
type CacheStats struct {
	Hits, Misses, Evictions, Entries, Bytes, Capacity int64
}

// stats snapshots c's counters.
func stats(c *Cache) CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load(),
		Entries: c.Entries(), Bytes: c.Bytes(), Capacity: c.Capacity()}
}
