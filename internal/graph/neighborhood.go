package graph

import (
	"fmt"
	"unsafe"
)

// This file is the implicit-topology substrate: a Neighborhood is any
// generator of sorted adjacency lists, and a seeded shift (circulant)
// construction provides one whose lists are recomputed on the fly from
// (n, d, seed) in O(d) time with zero steady-state allocations —
// instead of being stored as O(n·d) words of materialized adjacency.
// The engines and overlays consume topologies through this interface,
// so a simulated network of a million nodes keeps O(n) bits of state
// plus O(d) scratch resident, not a CSR of the whole graph.

// Neighborhood generates sorted neighbor lists on demand. A *Graph is
// a Neighborhood (backed by its stored adjacency); implicit
// implementations recompute the list from a seeded construction.
//
// AppendNeighbors appends v's neighbors to buf in ascending order and
// returns the extended slice; with a caller-provided buffer of
// capacity MaxDegree it never allocates, which is what lets the
// engines regenerate neighborhoods every round allocation-free.
type Neighborhood interface {
	// N returns the number of vertices.
	N() int
	// Degree returns the degree of v.
	Degree(v int) int
	// MaxDegree returns the maximum vertex degree.
	MaxDegree() int
	// AppendNeighbors appends the sorted neighbor list of v to buf.
	AppendNeighbors(v int, buf []int) []int
}

// AppendNeighbors implements Neighborhood for the materialized graph.
func (g *Graph) AppendNeighbors(v int, buf []int) []int {
	return append(buf, g.adj[v]...)
}

var _ Neighborhood = (*Graph)(nil)

// Shift is the implicit seeded shift graph: the circulant on n
// vertices whose connection set is a seeded pseudorandom choice of
// generators, so vertex v's neighbors are {v ± g mod n : g ∈ gens}.
// The construction is fully determined by (n, d, seed) and locally
// computable — AppendNeighbors touches only O(d) scratch — which the
// pairing-model random regular family is not (its edge-swap repair is
// global). Shift graphs trade a provable spectral gap for that local
// computability: random circulants are connected and well-mixing in
// practice, but as Abelian Cayley graphs they cannot meet the
// Ramanujan bound at constant degree, so the expander layer verifies
// them by connectivity plus the exact circulant eigenvalue (closed
// form) instead of the near-Ramanujan gate.
type Shift struct {
	n int
	// gens holds the distinct generators in ascending order, each in
	// [1, n/2]. A generator g < n/2 contributes the two neighbors
	// v±g; the involution generator n/2 (even n only) contributes one.
	gens []int
	deg  int
}

// NewShift constructs the seeded shift graph on n vertices with
// degree d. The generators are drawn from a splitmix64 stream of the
// seed; two calls with equal (n, d, seed) yield identical graphs. An
// odd degree requires even n (the involution generator n/2 supplies
// the odd neighbor); NewShift returns an error otherwise, mirroring
// the n·d-even requirement of every regular construction.
func NewShift(n, d int, seed uint64) (*Shift, error) {
	if n < 2 {
		return nil, errShift("need n >= 2, got %d", n)
	}
	if d < 1 || d > n-1 {
		return nil, errShift("degree %d out of range [1, %d]", d, n-1)
	}
	if d%2 == 1 && n%2 == 1 {
		return nil, errShift("odd degree %d needs even n, got n=%d", d, n)
	}
	// full holds the number of two-neighbor generators available:
	// [1, (n-1)/2] for odd n, [1, n/2-1] for even n (n/2 is the
	// involution).
	full := (n - 1) / 2
	if n%2 == 0 {
		full = n/2 - 1
	}
	k := d / 2
	if k > full {
		return nil, errShift("degree %d exceeds the %d-generator budget of n=%d", d, full, n)
	}
	s := &Shift{n: n, deg: d, gens: make([]int, 0, k+1)}
	if k == full {
		for g := 1; g <= full; g++ {
			s.gens = append(s.gens, g)
		}
	} else if k > 0 {
		seen := make([]bool, full+1)
		x := seed
		for len(s.gens) < k {
			x = splitmix64(x)
			g := 1 + int(x%uint64(full))
			if seen[g] {
				continue
			}
			seen[g] = true
			s.gens = append(s.gens, g)
		}
		insertionSort(s.gens)
	}
	if d%2 == 1 {
		s.gens = append(s.gens, n/2)
	}
	return s, nil
}

func errShift(format string, args ...any) error {
	return fmt.Errorf("graph: shift "+format, args...)
}

// N implements Neighborhood.
func (s *Shift) N() int { return s.n }

// Degree implements Neighborhood; shift graphs are regular.
func (s *Shift) Degree(int) int { return s.deg }

// MaxDegree implements Neighborhood.
func (s *Shift) MaxDegree() int { return s.deg }

// Bytes returns the heap footprint of the generator: O(d) words, never
// anything per vertex.
func (s *Shift) Bytes() int64 {
	return int64(unsafe.Sizeof(*s)) + int64(cap(s.gens))*int64(unsafe.Sizeof(s.gens[0]))
}

// Generators returns the connection set (ascending, each in [1, n/2]).
// The slice is owned by the Shift; callers must not modify it.
func (s *Shift) Generators() []int { return s.gens }

// AppendNeighbors implements Neighborhood: v's neighbors are
// {(v±g) mod n : g ∈ gens}, appended in ascending order. The
// generators are distinct values in [1, n/2], so the 2k(+1) neighbors
// are pairwise distinct and never equal v; only the order depends on
// where v+g wraps, which the insertion sort over the O(d) suffix
// restores.
func (s *Shift) AppendNeighbors(v int, buf []int) []int {
	start := len(buf)
	n := s.n
	for _, g := range s.gens {
		w := v + g
		if w >= n {
			w -= n
		}
		buf = append(buf, w)
		if 2*g != n {
			w = v - g
			if w < 0 {
				w += n
			}
			buf = append(buf, w)
		}
	}
	insertionSort(buf[start:])
	return buf
}

// Connected reports whether the shift graph is connected: a circulant
// is connected iff gcd(n, g_1, ..., g_k) = 1.
func (s *Shift) Connected() bool {
	g := s.n
	for _, v := range s.gens {
		g = gcd(g, v)
		if g == 1 {
			return true
		}
	}
	return g == 1
}

// Materialize stores an implicit Neighborhood as an ordinary Graph
// with the byte-identical adjacency lists — the bridge the
// equivalence suites use to pin implicit against materialized runs,
// and the fallback for analysis helpers that need random access to
// whole-graph structure.
func Materialize(nb Neighborhood) *Graph {
	n := nb.N()
	adj := make([][]int, n)
	for v := 0; v < n; v++ {
		adj[v] = nb.AppendNeighbors(v, make([]int, 0, nb.Degree(v)))
	}
	return &Graph{n: n, adj: adj}
}

// splitmix64 is the SplitMix64 finalizer, the repository's standard
// cheap seeded stream (see internal/link.mix).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// insertionSort sorts the O(d) neighbor scratch in place without the
// sort package's interface overhead or allocations.
func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
