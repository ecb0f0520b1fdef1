package graph

import (
	"sort"

	"lineartime/internal/bitset"
)

// The structural measures below are the graph tests' oracles; no
// protocol or overlay construction needs them.

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
