package expander

import (
	"fmt"
	"math"

	"lineartime/internal/bitset"
	"lineartime/internal/spectral"
)

// The paper's constants for astronomically large n and the
// combinatorial statements of Theorems 2 and 3, as oracles for the
// theorem tests; no overlay construction needs them.

// PaperDegree returns the paper's degree choice for the little-nodes
// overlay: d = 5^8 (§4.1). Only meaningful for astronomically large n;
// provided for documentation and the constants tests.
func PaperDegree() int { return 390625 } // 5^8

// PaperDeltaFloat returns δ(d) = (d^{7/8} − d^{5/8})/2 from §3.
func PaperDeltaFloat(d int) float64 {
	df := float64(d)
	return (math.Pow(df, 7.0/8.0) - math.Pow(df, 5.0/8.0)) / 2
}

// SurvivalSubset computes the maximal δ-survival subset of B: the
// result of iterating the operator
//
//	F_B(Y) = Y ∪ { v ∈ B\Y : v has fewer than δ neighbors in B\Y }
//
// to its fixed point B* and returning C = B \ B* (Theorem 2's proof).
// Every vertex of C has ≥ δ neighbors inside C, and C is the unique
// maximal such subset of B.
func (o *Overlay) SurvivalSubset(b *bitset.Set, delta int) *bitset.Set {
	g := o.G
	c := b.Clone()
	deg := make([]int, o.P.N)
	c.ForEach(func(v int) { deg[v] = g.DegreeIn(v, c) })

	// Peel vertices with degree < delta, cascading (Kruskal-style
	// core decomposition restricted to threshold delta).
	queue := make([]int, 0, c.Count())
	c.ForEach(func(v int) {
		if deg[v] < delta {
			queue = append(queue, v)
		}
	})
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !c.Contains(v) {
			continue
		}
		c.Remove(v)
		for _, w := range g.Neighbors(v) {
			if c.Contains(w) {
				deg[w]--
				if deg[w] < delta {
					queue = append(queue, w)
				}
			}
		}
	}
	return c
}

// HasDenseNeighborhood reports whether vertex v has a (γ,δ)-dense
// neighborhood inside the vertex set b (§2): a set S ⊆ N^γ(v) ∩ b such
// that every node of S ∩ N^{γ−1}(v) has ≥ δ neighbors in S. We compute
// the maximal candidate S as the δ-survival-style peeling of
// N^γ(v) ∩ b restricted to the inner ring, then check v's membership.
func (o *Overlay) HasDenseNeighborhood(v int, b *bitset.Set, gamma, delta int) bool {
	if !b.Contains(v) {
		return false
	}
	g := o.G
	ball := g.NeighborhoodOf(v, gamma)
	ball.IntersectWith(b)
	inner := g.NeighborhoodOf(v, gamma-1)
	inner.IntersectWith(b)

	// Peel: repeatedly drop inner vertices with < delta neighbors in
	// the current candidate set. Outer-ring vertices are support only.
	s := ball
	changed := true
	for changed {
		changed = false
		var drop []int
		s.ForEach(func(u int) {
			if inner.Contains(u) && g.DegreeIn(u, s) < delta {
				drop = append(drop, u)
			}
		})
		for _, u := range drop {
			s.Remove(u)
			changed = true
		}
	}
	return s.Contains(v)
}

// VerifyCompactness empirically checks the (ℓ, 3/4, δ)-compactness
// property (Theorem 2) on a specific vertex set b with |b| ≥ ell:
// it returns the survival subset and whether it reaches 3ℓ/4.
func (o *Overlay) VerifyCompactness(b *bitset.Set, ell, delta int) (*bitset.Set, bool) {
	c := o.SurvivalSubset(b, delta)
	return c, c.Count()*4 >= 3*ell
}

// Describe returns a human-readable summary of the overlay.
func (o *Overlay) Describe() string {
	return fmt.Sprintf("overlay n=%d d=%d δ=%d γ=%d ℓ=%d λ=%.3f (bound %.3f) seed=%d",
		o.P.N, o.P.Degree, o.P.Delta, o.P.Gamma, o.P.Ell,
		o.Lambda, spectral.RamanujanBound(o.P.Degree), o.Seed)
}
