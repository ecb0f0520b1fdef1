// Package serve is the serving layer of the repository: it turns the
// scenario runner into a long-running daemon. Because every run is a
// pure, deterministic function of its Spec (and the Spec's canonical
// identity is scenario.Spec.Key), the layer can cache, coalesce and
// queue runs without ever risking a stale answer:
//
//   - Cache (cache.go) is a sharded, byte-budgeted LRU keyed by
//     Spec.Key; a hit is provably the correct response.
//   - flightGroup (coalesce.go) collapses N concurrent identical
//     requests into one engine run.
//   - workPool (queue.go) bounds engine concurrency with a fixed
//     worker pool over a bounded queue, rejecting overload instead of
//     spawning unbounded goroutines.
//   - Server (server.go) is the HTTP/JSON front wiring the three
//     together: /v1/run, /v1/sweep, /v1/scenarios, /healthz, /statsz.
//
// cmd/linearsimd hosts a Server; the repository benchmark (bench/)
// drives one closed-loop.
package serve

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// entryOverhead approximates the per-entry bookkeeping bytes (list
// element, map bucket share, entry header) charged against the byte
// budget in addition to the key and value payloads.
const entryOverhead = 128

// Cache is a sharded LRU over response bytes with a global byte
// budget. Sharding keeps lock hold times short under concurrent
// traffic; the budget is split evenly across shards, so a single shard
// evicts independently of the others. The zero value is not usable;
// call NewCache.
type Cache struct {
	shards []cacheShard
	seed   maphash.Seed

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Capacity  int64 `json:"capacity_bytes"`
}

type cacheShard struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	byKey  map[string]*list.Element
	// lru orders entries front = most recently used.
	lru list.List
}

type cacheEntry struct {
	key  string
	val  []byte
	size int64
}

// NewCache returns a cache of the given total byte budget split over
// shards. shards <= 0 defaults to 16; budget <= 0 defaults to 64 MiB.
func NewCache(budget int64, shards int) *Cache {
	if shards <= 0 {
		shards = 16
	}
	if budget <= 0 {
		budget = 64 << 20
	}
	c := &Cache{shards: make([]cacheShard, shards), seed: maphash.MakeSeed()}
	per := budget / int64(shards)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].budget = per
		c.shards[i].byKey = make(map[string]*list.Element)
	}
	return c
}

func (c *Cache) shard(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)%uint64(len(c.shards))]
}

// Get returns the cached bytes for key, marking the entry most
// recently used. The returned slice is shared with the cache and must
// not be mutated.
func (c *Cache) Get(key string) ([]byte, bool) {
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.byKey[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	s.lru.MoveToFront(el)
	val := el.Value.(*cacheEntry).val
	s.mu.Unlock()
	c.hits.Add(1)
	return val, true
}

// Put stores val under key, evicting least-recently-used entries until
// the shard is back under budget. A value larger than a whole shard's
// budget is not stored at all — admitting it would immediately flush
// the shard for a value that can never be retained.
func (c *Cache) Put(key string, val []byte) {
	size := int64(len(key)+len(val)) + entryOverhead
	s := c.shard(key)
	if size > s.budget {
		return
	}
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		e := el.Value.(*cacheEntry)
		s.bytes += size - e.size
		e.val, e.size = val, size
		s.lru.MoveToFront(el)
	} else {
		s.byKey[key] = s.lru.PushFront(&cacheEntry{key: key, val: val, size: size})
		s.bytes += size
	}
	var evicted int64
	for s.bytes > s.budget {
		back := s.lru.Back()
		e := back.Value.(*cacheEntry)
		s.lru.Remove(back)
		delete(s.byKey, e.key)
		s.bytes -= e.size
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// Entries counts resident entries across shards.
func (c *Cache) Entries() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += int64(len(s.byKey))
		s.mu.Unlock()
	}
	return n
}

// Bytes sums resident bytes across shards.
func (c *Cache) Bytes() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}

// Capacity sums the per-shard byte budgets (fixed at construction).
func (c *Cache) Capacity() int64 {
	var n int64
	for i := range c.shards {
		n += c.shards[i].budget
	}
	return n
}

// Stats snapshots the counters. Entries and Bytes sum over shards
// under their locks; the atomic counters are read without
// synchronization, so a concurrent snapshot is approximate (each
// counter individually exact).
func (c *Cache) Stats() CacheStats {
	st := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += int64(len(s.byKey))
		st.Bytes += s.bytes
		st.Capacity += s.budget
		s.mu.Unlock()
	}
	return st
}
