// Package graph implements the simple undirected graphs used as
// overlay networks by every algorithm in the paper (§2 "Overlay
// graphs"): the graph constructions (complete, cycle, hypercube,
// permutation-model random regular) from which the expander layer
// builds verified overlays, the connectivity check it verifies them
// with, and the measures the theorem tests of this package, expander
// and spectral share: neighborhoods N^i_G(v), edge counts e(A,B)
// between vertex sets and degrees inside a set.
package graph

import (
	"fmt"
	"math/bits"
	"sort"
	"unsafe"

	"lineartime/internal/bitset"
)

// Graph is a simple undirected graph on vertices 0..n-1 stored as
// sorted adjacency lists. Graphs are immutable after construction;
// protocols share them freely across goroutines.
type Graph struct {
	n   int
	adj [][]int
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges and self-loops are ignored, which lets constructions over-add
// safely.
type Builder struct {
	n    int
	sets []map[int]struct{}
}

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	sets := make([]map[int]struct{}, n)
	for i := range sets {
		sets[i] = make(map[int]struct{})
	}
	return &Builder{n: n, sets: sets}
}

// AddEdge inserts the undirected edge {u, v}. Self-loops are dropped.
func (b *Builder) AddEdge(u, v int) {
	if u == v {
		return
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.sets[u][v] = struct{}{}
	b.sets[v][u] = struct{}{}
}

// Build freezes the builder into an immutable Graph.
func (b *Builder) Build() *Graph {
	adj := make([][]int, b.n)
	for u, set := range b.sets {
		lst := make([]int, 0, len(set))
		for v := range set {
			lst = append(lst, v)
		}
		sort.Ints(lst)
		adj[u] = lst
	}
	return &Graph{n: b.n, adj: adj}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// Bytes returns the heap footprint of the graph: the struct, one slice
// header per vertex and the adjacency words those slices own.
func (g *Graph) Bytes() int64 {
	size := int64(unsafe.Sizeof(*g)) + int64(cap(g.adj))*int64(unsafe.Sizeof(g.adj[0]))
	for _, a := range g.adj {
		size += int64(cap(a)) * int64(unsafe.Sizeof(a[0]))
	}
	return size
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// is owned by the graph; callers must not modify it.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// NeighborhoodOf returns N^radius_G({v}): all vertices within the given
// distance of v, v included.
func (g *Graph) NeighborhoodOf(v, radius int) *bitset.Set {
	reach := bitset.New(g.n)
	reach.Add(v)
	frontier := []int{v}
	for step := 0; step < radius && len(frontier) > 0; step++ {
		var next []int
		for _, u := range frontier {
			for _, w := range g.adj[u] {
				if !reach.Contains(w) {
					reach.Add(w)
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return reach
}

// EdgesBetween returns e(A, B): the number of edges with one endpoint
// in A and the other in B, for disjoint A and B. If the sets overlap,
// edges inside the overlap are counted per the standard convention of
// ordered scanning from A (the paper only uses disjoint sets).
func (g *Graph) EdgesBetween(a, b *bitset.Set) int {
	count := 0
	a.ForEach(func(u int) {
		for _, v := range g.adj[u] {
			if b.Contains(v) {
				count++
			}
		}
	})
	return count
}

// DegreeIn returns the number of neighbors of v inside the set S, i.e.
// v's degree in the induced subgraph G|S (v itself need not be in S).
func (g *Graph) DegreeIn(v int, s *bitset.Set) int {
	d := 0
	for _, w := range g.adj[v] {
		if s.Contains(w) {
			d++
		}
	}
	return d
}

// IsConnected reports whether the whole graph is connected. The empty
// graph and single-vertex graph are connected. It searches from vertex 0
// with the reached set and the frontier as two bitmaps, which live on
// the stack for n ≤ 4096, so the check allocates nothing there: each
// sweep over the frontier's words expands every frontier vertex once,
// and vertices it reaches join the frontier for this sweep or the next.
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	var seenBuf, frontBuf [64]uint64
	words := (g.n + 63) / 64
	seen, front := seenBuf[:], frontBuf[:]
	if words > len(seenBuf) {
		seen, front = make([]uint64, words), make([]uint64, words)
	}
	seen, front = seen[:words], front[:words]
	seen[0], front[0] = 1, 1
	reached := 1
	for expanded := true; expanded && reached < g.n; {
		expanded = false
		for w := range front {
			for front[w] != 0 {
				b := bits.TrailingZeros64(front[w])
				front[w] &^= 1 << b
				expanded = true
				for _, v := range g.adj[w*64+b] {
					if seen[v>>6]&(1<<(v&63)) == 0 {
						seen[v>>6] |= 1 << (v & 63)
						front[v>>6] |= 1 << (v & 63)
						reached++
					}
				}
			}
		}
	}
	return reached == g.n
}
