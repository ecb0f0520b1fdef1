package expander

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// An overlay is a pure function of New's arguments — never of a run's
// inputs, faults or adversary — so New memoizes behind one process-wide
// cache. A hit returns the very *Overlay an earlier call built and
// verified: construction, the spectral gate and the connectivity check
// are skipped, the recorded Lambda/Seed verdict travels with the graph.
// Overlays are immutable after construction, so one cached value is
// shared read-only by every run, worker and lane that asks for it.
//
// Admission is on second sight. The first request for a key builds and
// returns its overlay and leaves only the key behind (a ghost); the
// overlay is retained when the key is requested again. A stream of
// never-repeating seeds — a sweep, or a client that draws a fresh seed
// per request — therefore retains nothing, while anything that recurs
// (a campaign evaluating fault candidates against one (n, t, seed), a
// seed pool) pays for exactly two builds. Requests that arrive while a
// key is being built wait for that build instead of starting their own,
// and count as its second sight.

// cacheBudget is the byte budget of the process-wide overlay cache.
const cacheBudget = 32 << 20

// maxGhosts bounds the seen-once key set. When it fills it is dropped
// whole: forgetting a sighting only costs a recurring key one more
// build before it is admitted.
const maxGhosts = 1024

// entryOverhead approximates the bookkeeping bytes (Overlay header,
// entry, list element, map bucket share) charged per resident overlay
// on top of its exact graph footprint.
const entryOverhead = 256

// cacheKey is New's argument tuple with the degree resolved and, on the
// complete-graph branch, the seed build ignores there dropped, so
// spellings that construct the same overlay share one entry.
type cacheKey struct {
	n, degree, delta int
	seed             uint64
}

func keyOf(n int, opts Options) cacheKey {
	degree, complete := degreeFor(n, opts.Degree)
	k := cacheKey{n: n, degree: degree, delta: opts.Delta, seed: opts.Seed}
	if complete {
		// build degenerates to K_n, which consumes no seed and is never
		// verified: the overlay is a function of (n, δ) alone, so every
		// seed and saturated degree shares one.
		k.seed = 0
	}
	return k
}

// cacheEntry is one key's build. It is in cache.entries from the moment
// its first requester starts building until that requester settles it:
// resident (el != nil) if the key had been seen before or was requested
// again meanwhile, dropped to a ghost otherwise.
type cacheEntry struct {
	key  cacheKey
	once sync.Once
	o    *Overlay
	err  error

	// Guarded by cache.mu.
	recurred bool
	size     int64
	el       *list.Element
}

// cache is a byte-budgeted LRU of built overlays with second-sight
// admission.
type cache struct {
	budget int64

	mu      sync.Mutex
	bytes   int64
	entries map[cacheKey]*cacheEntry
	lru     list.List // resident entries, front = most recently used
	ghosts  map[cacheKey]struct{}

	hits, misses, evictions atomic.Int64
	buildNanos, rotations   atomic.Int64
}

func newCache(budget int64) *cache {
	return &cache{
		budget:  budget,
		entries: make(map[cacheKey]*cacheEntry),
		ghosts:  make(map[cacheKey]struct{}),
	}
}

// overlays is the process-wide instance behind New.
var overlays = newCache(cacheBudget)

// get returns the overlay for (n, opts), building it at most once among
// concurrent requesters.
func (c *cache) get(n int, opts Options) (*Overlay, error) {
	key := keyOf(n, opts)

	c.mu.Lock()
	e, found := c.entries[key]
	resident := found && e.el != nil
	switch {
	case resident:
		c.lru.MoveToFront(e.el)
	case found:
		e.recurred = true
	default:
		e = &cacheEntry{key: key}
		_, e.recurred = c.ghosts[key]
		c.entries[key] = e
	}
	c.mu.Unlock()

	if found {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	if resident {
		return e.o, nil // settled, so built: skip the Once and its closure
	}
	e.once.Do(func() {
		start := time.Now()
		var rotated int
		e.o, rotated, e.err = build(n, opts)
		c.buildNanos.Add(int64(time.Since(start)))
		c.rotations.Add(int64(rotated))
	})
	if !found {
		c.settle(e)
	}
	return e.o, e.err
}

// settle ends a finished build's probation: a recurring key's overlay
// becomes resident (evicting from the cold end to stay within budget),
// anything else leaves the table, a first sight leaving its ghost.
func (c *cache) settle(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.err != nil {
		delete(c.entries, e.key)
		return
	}
	if !e.recurred {
		delete(c.entries, e.key)
		if len(c.ghosts) >= maxGhosts {
			clear(c.ghosts)
		}
		c.ghosts[e.key] = struct{}{}
		return
	}
	e.size = e.o.bytes() + entryOverhead
	if e.size > c.budget {
		// Admitting it would flush the cache for an overlay that can
		// never be retained.
		delete(c.entries, e.key)
		return
	}
	delete(c.ghosts, e.key)
	e.el = c.lru.PushFront(e)
	c.bytes += e.size
	for c.bytes > c.budget {
		back := c.lru.Back()
		old := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, old.key)
		c.bytes -= old.size
		c.evictions.Add(1)
	}
}

// CacheStats is a point-in-time snapshot of the process-wide overlay
// cache.
type CacheStats struct {
	// Hits counts requests served without a build: resident overlays
	// and requests that joined a build in flight. Misses counts builds.
	Hits, Misses, Evictions int64
	// BuildTime is the wall time the Misses builds took in total, and
	// SeedRotations the seeds they rejected — unbuildable, disconnected
	// or above the Ramanujan gate — and rotated past.
	BuildTime     time.Duration
	SeedRotations int64
	// Entries and Bytes describe the resident overlays; Bytes never
	// exceeds Capacity.
	Entries, Bytes, Capacity int64
}

func (c *cache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		BuildTime:     time.Duration(c.buildNanos.Load()),
		SeedRotations: c.rotations.Load(),
		Entries:       int64(c.lru.Len()),
		Bytes:         c.bytes,
		Capacity:      c.budget,
	}
}

// Stats snapshots the process-wide overlay cache.
func Stats() CacheStats { return overlays.stats() }

// bytes returns the heap footprint of the overlay's adjacency.
func (o *Overlay) bytes() int64 { return o.G.Bytes() }
