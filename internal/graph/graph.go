// Package graph implements the simple undirected graphs used as
// overlay networks by every algorithm in the paper (§2 "Overlay
// graphs"). It provides the structural operations the proofs rely on:
// generalized neighborhoods N^i_G(W), induced subgraphs G|W, edge
// counts e(A,B) between vertex sets, induced edge volume vol(S), and
// connectivity, plus the graph constructions (complete, cycle,
// hypercube, permutation-model random regular) from which the expander
// layer builds verified overlays.
package graph

import (
	"fmt"
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

// HasEdge reports whether the edge {u,v} has been added.
func (b *Builder) HasEdge(u, v int) bool {
	_, ok := b.sets[u][v]
	return ok
}

// Degree returns the current degree of u in the builder.
func (b *Builder) Degree(u int) int { return len(b.sets[u]) }

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

// MaxDegree returns the maximum vertex degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, a := range g.adj {
		if len(a) > max {
			max = len(a)
		}
	}
	return max
}

// MinDegree returns the minimum vertex degree (0 for the empty graph).
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := len(g.adj[0])
	for _, a := range g.adj[1:] {
		if len(a) < min {
			min = len(a)
		}
	}
	return min
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// HasEdge reports whether {u,v} is an edge, by binary search.
func (g *Graph) HasEdge(u, v int) bool {
	a := g.adj[u]
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

// IsRegular reports whether every vertex has degree d.
func (g *Graph) IsRegular(d int) bool {
	for _, a := range g.adj {
		if len(a) != d {
			return false
		}
	}
	return true
}

// Neighborhood returns N^radius_G(start): all vertices within the given
// distance of some vertex in start (including start itself, distance 0).
func (g *Graph) Neighborhood(start *bitset.Set, radius int) *bitset.Set {
	if start.Len() != g.n {
		panic("graph: neighborhood start set capacity mismatch")
	}
	reach := start.Clone()
	frontier := start.Elements()
	for step := 0; step < radius && len(frontier) > 0; step++ {
		var next []int
		for _, v := range frontier {
			for _, w := range g.adj[v] {
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

// NeighborhoodOf returns N^radius_G({v}).
func (g *Graph) NeighborhoodOf(v, radius int) *bitset.Set {
	s := bitset.New(g.n)
	s.Add(v)
	return g.Neighborhood(s, radius)
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

// Volume returns vol(S): the number of edges of G with both endpoints
// in S (the induced edge count used in Lemma 1).
func (g *Graph) Volume(s *bitset.Set) int {
	count := 0
	s.ForEach(func(u int) {
		for _, v := range g.adj[u] {
			if v > u && s.Contains(v) {
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

// InducedSubgraph returns G|W re-labelled onto 0..|W|-1, together with
// the mapping from new labels back to original vertex names.
func (g *Graph) InducedSubgraph(w *bitset.Set) (*Graph, []int) {
	names := w.Elements()
	index := make(map[int]int, len(names))
	for i, v := range names {
		index[v] = i
	}
	b := NewBuilder(len(names))
	for i, v := range names {
		for _, u := range g.adj[v] {
			if j, ok := index[u]; ok && j > i {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Build(), names
}

// ConnectedComponents returns the vertex sets of the connected
// components restricted to the vertices in the given set.
func (g *Graph) ConnectedComponents(within *bitset.Set) []*bitset.Set {
	seen := bitset.New(g.n)
	var comps []*bitset.Set
	within.ForEach(func(v int) {
		if seen.Contains(v) {
			return
		}
		comp := bitset.New(g.n)
		stack := []int{v}
		seen.Add(v)
		comp.Add(v)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.adj[u] {
				if within.Contains(w) && !seen.Contains(w) {
					seen.Add(w)
					comp.Add(w)
					stack = append(stack, w)
				}
			}
		}
		comps = append(comps, comp)
	})
	return comps
}

// IsConnected reports whether the whole graph is connected. The empty
// graph and single-vertex graph are connected.
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	all := bitset.New(g.n)
	all.Fill()
	return len(g.ConnectedComponents(all)) == 1
}

// Diameter returns the largest finite shortest-path distance, or -1 if
// the graph is disconnected. O(n * m); use on small graphs and tests.
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return 0
	}
	max := 0
	dist := make([]int, g.n)
	queue := make([]int, 0, g.n)
	for src := 0; src < g.n; src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue = append(queue[:0], src)
		reached := 1
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					if dist[v] > max {
						max = dist[v]
					}
					reached++
					queue = append(queue, v)
				}
			}
		}
		if reached != g.n {
			return -1
		}
	}
	return max
}
