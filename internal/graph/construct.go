package graph

import (
	"fmt"
	"slices"

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
	const maxAttempts = 32
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if pairs, ok := pairingModel(n, d, r); ok {
			return regularFromPairs(n, d, pairs), nil
		}
	}
	return nil, fmt.Errorf("graph: RandomRegular(n=%d,d=%d,seed=%d) failed after %d attempts",
		n, d, seed, maxAttempts)
}

// pair is one edge of a configuration-model sample.
type pair struct{ u, v int }

// pairingModel draws one configuration-model sample and repairs bad
// pairs (self-loops, duplicate edges) by swapping endpoints with
// randomly chosen other pairs. On ok the n·d/2 pairs are distinct
// non-loop edges covering every vertex exactly d times; ok=false means
// repair stalled.
func pairingModel(n, d int, r *rng.SplitMix64) ([]pair, bool) {
	m := n * d / 2
	points := make([]int, n*d)
	for v := 0; v < n; v++ {
		for k := 0; k < d; k++ {
			points[v*d+k] = v
		}
	}
	r.Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })

	pairs := make([]pair, m)
	for i := 0; i < m; i++ {
		pairs[i] = pair{points[2*i], points[2*i+1]}
	}

	key := func(p pair) int64 {
		u, v := p.u, p.v
		if u > v {
			u, v = v, u
		}
		return int64(u)*int64(n) + int64(v)
	}
	seen := make(map[int64]int, m) // canonical edge -> multiplicity
	for _, p := range pairs {
		seen[key(p)]++
	}
	bad := func(p pair) bool { return p.u == p.v || seen[key(p)] > 1 }

	// Repair with a worklist: for each bad pair, swap its second
	// endpoint with a random other pair's second endpoint when the
	// swap removes the badness without creating new conflicts.
	work := make([]int, 0, m/8)
	for j := range pairs {
		if bad(pairs[j]) {
			work = append(work, j)
		}
	}
	budget := 50*len(work) + 16*m
	for iter := 0; len(work) > 0; iter++ {
		if iter > budget {
			return nil, false
		}
		i := work[len(work)-1]
		if !bad(pairs[i]) {
			work = work[:len(work)-1]
			continue
		}
		j := r.Intn(m)
		if j == i {
			continue
		}
		pi, pj := pairs[i], pairs[j]
		np1 := pair{pi.u, pj.v}
		np2 := pair{pj.u, pi.v}
		if np1.u == np1.v || np2.u == np2.v {
			continue
		}
		// Tentatively apply the swap and check multiplicities.
		seen[key(pi)]--
		seen[key(pj)]--
		if seen[key(np1)] > 0 || seen[key(np2)] > 0 || key(np1) == key(np2) {
			seen[key(pi)]++
			seen[key(pj)]++
			continue
		}
		seen[key(np1)]++
		seen[key(np2)]++
		pairs[i], pairs[j] = np1, np2
		// The partner pair j was previously good (its key count was 1)
		// and stays good by the check above, so only i needs re-check,
		// which the loop head performs.
	}
	return pairs, true
}

// regularFromPairs builds the d-regular simple graph whose edges are
// pairingModel's repaired pairs. Every vertex owns exactly d endpoints,
// so the n sorted adjacency lists are filled straight into one backing
// array, each clipped to its own d words.
func regularFromPairs(n, d int, pairs []pair) *Graph {
	flat := make([]int, n*d)
	adj := make([][]int, n)
	for v := range adj {
		adj[v] = flat[v*d : v*d : (v+1)*d]
	}
	for _, p := range pairs {
		adj[p.u] = append(adj[p.u], p.v)
		adj[p.v] = append(adj[p.v], p.u)
	}
	for _, a := range adj {
		slices.Sort(a)
	}
	return &Graph{n: n, adj: adj}
}
