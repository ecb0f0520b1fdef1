package graph

import (
	"fmt"
	"slices"
	"sync"

	"lineartime/internal/rng"
)

// Complete returns the complete graph K_n. Every vertex's sorted
// adjacency is 0..n-1 without itself, so the lists are written straight
// into one backing array, each clipped to its own n-1 words.
func Complete(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	adj := make([][]int, n)
	d := n - 1
	flat := make([]int, n*d)
	for u := range adj {
		row := flat[u*d : (u+1)*d : (u+1)*d]
		for v := 0; v < u; v++ {
			row[v] = v
		}
		for v := u + 1; v < n; v++ {
			row[v-1] = v
		}
		adj[u] = row
	}
	return &Graph{n: n, adj: adj}
}

// Cycle returns the n-cycle (n >= 3), or a path/edge for tiny n.
func Cycle(n int) *Graph {
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	return b.Build()
}

// Hypercube returns the dim-dimensional hypercube on 2^dim vertices.
func Hypercube(dim int) *Graph {
	n := 1 << dim
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		for i := 0; i < dim; i++ {
			b.AddEdge(v, v^(1<<i))
		}
	}
	return b.Build()
}

// RandomRegular returns a d-regular simple graph on n vertices built
// with the configuration (pairing) model followed by edge-swap repair
// of self-loops and duplicate edges, driven by the deterministic
// generator seeded with seed. Random regular graphs of constant degree
// are near-Ramanujan with high probability (Friedman's theorem); the
// expander layer verifies the spectral bound after construction and
// re-seeds if the check fails.
//
// Requirements: 0 < d < n and n*d even.
func RandomRegular(n, d int, seed uint64) (*Graph, error) {
	switch {
	case n <= 0:
		return nil, fmt.Errorf("graph: RandomRegular needs n > 0, got %d", n)
	case d <= 0 || d >= n:
		return nil, fmt.Errorf("graph: RandomRegular needs 0 < d < n, got d=%d n=%d", d, n)
	case n*d%2 != 0:
		return nil, fmt.Errorf("graph: RandomRegular needs n*d even, got n=%d d=%d", n, d)
	}
	r := rng.New(seed)
	p := newPairing(n, d)
	defer pairings.Put(p)
	const maxAttempts = 32
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if p.draw(r) {
			return p.graph(), nil
		}
	}
	return nil, fmt.Errorf("graph: RandomRegular(n=%d,d=%d,seed=%d) failed after %d attempts",
		n, d, seed, maxAttempts)
}

// pairing is the scratch of one RandomRegular call, sized once and
// reused by every attempt. A configuration-model sample is the n·d
// points shuffled and read off two by two: pair i is the edge
// {points[2i], points[2i+1]}.
type pairing struct {
	n, d   int
	points []int32
	work   []int
	fill   []int      // adjacency entries written per vertex, in graph
	seen   edgeCounts // multiplicity of every pair's edge
}

// pairings keeps RandomRegular's scratch between calls: a build whose
// shape fits the scratch a previous build left allocates only the
// graph it returns.
var pairings sync.Pool

// newPairing returns scratch for shape (n, d), pooled when there is
// some; RandomRegular puts it back. Every attempt overwrites the points
// and clears the table, and graph clears fill, so what an earlier
// build left in them is never read.
func newPairing(n, d int) *pairing {
	p, _ := pairings.Get().(*pairing)
	if p == nil {
		p = &pairing{}
	}
	p.n, p.d = n, d
	p.points = slices.Grow(p.points[:0], n*d)[:n*d]
	p.fill = slices.Grow(p.fill[:0], n)[:n]
	p.work = p.work[:0]
	p.seen.fit(n * d)
	return p
}

// edge returns pair i's endpoints and the canonical key of its edge.
func (p *pairing) edge(i int) (u, v int32, key uint64) {
	u, v = p.points[2*i], p.points[2*i+1]
	return u, v, p.key(u, v)
}

func (p *pairing) key(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)*uint64(p.n) + uint64(v)
}

// bad reports whether pair i is a self-loop or one of several copies of
// an edge.
func (p *pairing) bad(i int) bool {
	u, v, key := p.edge(i)
	return u == v || p.seen.get(key) > 1
}

// draw draws one configuration-model sample and repairs bad pairs
// (self-loops, duplicate edges) by swapping endpoints with randomly
// chosen other pairs. On true the pairs are distinct non-loop edges
// covering every vertex exactly d times; false means repair stalled.
func (p *pairing) draw(r *rng.SplitMix64) bool {
	n, d, points := p.n, p.d, p.points
	m := len(points) / 2
	for v := 0; v < n; v++ {
		for k := 0; k < d; k++ {
			points[v*d+k] = int32(v)
		}
	}
	// Fisher–Yates, the draws rng.Shuffle makes.
	for i := len(points) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		points[i], points[j] = points[j], points[i]
	}
	p.seen.clear()
	for i := 0; i < m; i++ {
		_, _, key := p.edge(i)
		p.seen.add(key, 1)
	}

	// Repair with a worklist: for each bad pair, swap its second
	// endpoint with a random other pair's second endpoint when the
	// swap removes the badness without creating new conflicts.
	work := p.work[:0]
	for j := 0; j < m; j++ {
		if p.bad(j) {
			work = append(work, j)
		}
	}
	p.work = work // the repair below only shrinks it
	budget := 50*len(work) + 16*m
	for iter := 0; len(work) > 0; iter++ {
		if iter > budget {
			return false
		}
		i := work[len(work)-1]
		if !p.bad(i) {
			work = work[:len(work)-1]
			continue
		}
		j := r.Intn(m)
		if j == i {
			continue
		}
		iu, iv, ki := p.edge(i)
		ju, jv, kj := p.edge(j)
		if iu == jv || ju == iv {
			continue
		}
		// Tentatively apply the swap and check multiplicities.
		k1, k2 := p.key(iu, jv), p.key(ju, iv)
		p.seen.add(ki, -1)
		p.seen.add(kj, -1)
		if p.seen.get(k1) > 0 || p.seen.get(k2) > 0 || k1 == k2 {
			p.seen.add(ki, 1)
			p.seen.add(kj, 1)
			continue
		}
		p.seen.add(k1, 1)
		p.seen.add(k2, 1)
		points[2*i+1], points[2*j+1] = jv, iv
		// The partner pair j was previously good (its key count was 1)
		// and stays good by the check above, so only i needs re-check,
		// which the loop head performs.
	}
	return true
}

// graph builds the d-regular simple graph whose edges are the repaired
// pairs. Every vertex owns exactly d endpoints, so the n adjacency lists
// are filled straight into one backing array, each clipped to its own
// d words, and sorted by a counting transpose: the unsorted lists go
// into that array first, and scanning them in vertex order writes each
// vertex v into its neighbours' lists in the points buffer in ascending
// v, from where the sorted lists are copied back.
func (p *pairing) graph() *Graph {
	n, d, points, fill := p.n, p.d, p.points, p.fill
	clear(fill)
	flat := make([]int, n*d)
	for i := 0; i < len(points); i += 2 {
		u, v := int(points[i]), int(points[i+1])
		flat[u*d+fill[u]] = v
		fill[u]++
		flat[v*d+fill[v]] = u
		fill[v]++
	}
	clear(fill)
	for v := 0; v < n; v++ {
		for _, u := range flat[v*d : (v+1)*d] {
			points[u*d+fill[u]] = int32(v)
			fill[u]++
		}
	}
	adj := make([][]int, n)
	for v := range adj {
		row := flat[v*d : (v+1)*d : (v+1)*d]
		for k, w := range points[v*d : (v+1)*d] {
			row[k] = int(w)
		}
		adj[v] = row
	}
	return &Graph{n: n, adj: adj}
}

// edgeCounts is a multiplicity table over edge keys: open addressing
// with linear probing in a power-of-two table sized by fit. A key
// whose count falls to zero leaves the table, so it never holds more
// keys than a sample has pairs.
type edgeCounts struct {
	keys   []uint64 // key+1; 0 marks an empty slot
	counts []int32
	shift  uint
}

// fit sizes the table to at least the given number of slots, which the
// keys of slots/2 pairs fill at most half, in arrays it keeps when they
// are long enough; what they hold is left for clear.
func (t *edgeCounts) fit(slots int) {
	size, shift := 1, uint(64)
	for size < slots {
		size <<= 1
		shift--
	}
	t.keys = slices.Grow(t.keys[:0], size)[:size]
	t.counts = slices.Grow(t.counts[:0], size)[:size]
	t.shift = shift
}

func (t *edgeCounts) clear() {
	clear(t.keys)
	clear(t.counts)
}

// home returns key's preferred slot.
func (t *edgeCounts) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> t.shift)
}

// slot returns the slot holding key, or the empty slot where it would
// go.
func (t *edgeCounts) slot(key uint64) int {
	mask := len(t.keys) - 1
	i := t.home(key) & mask
	for t.keys[i] != 0 && t.keys[i] != key+1 {
		i = (i + 1) & mask
	}
	return i
}

// get returns key's multiplicity.
func (t *edgeCounts) get(key uint64) int32 { return t.counts[t.slot(key)] }

// add adds delta to key's multiplicity.
func (t *edgeCounts) add(key uint64, delta int32) {
	i := t.slot(key)
	t.keys[i] = key + 1
	t.counts[i] += delta
	if t.counts[i] != 0 {
		return
	}
	// Delete by backward shift: empty the slot, then move back each
	// later key of the probe run whose home does not lie between the
	// hole and it, so every key stays reachable from its home.
	mask := len(t.keys) - 1
	for j := i; ; {
		t.keys[i], t.counts[i] = 0, 0
		for {
			j = (j + 1) & mask
			if t.keys[j] == 0 {
				return
			}
			if h := t.home(t.keys[j]-1) & mask; (j-h)&mask >= (j-i)&mask {
				break
			}
		}
		t.keys[i], t.counts[i] = t.keys[j], t.counts[j]
		i = j
	}
}
