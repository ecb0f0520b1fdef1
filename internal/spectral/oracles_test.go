package spectral

import (
	"fmt"
	"math"
	"math/bits"

	"lineartime/internal/bitset"
	"lineartime/internal/graph"
	"lineartime/internal/rng"
)

// The expansion measures below are oracles for the tests, which check
// the power iteration's λ against the combinatorial statements it
// stands for; the overlay verification needs only λ.

// ExactEdgeExpansion computes h(G) = min_{0<|W|≤n/2} |∂W|/|W| exactly
// by enumerating all 2^n vertex subsets. Exponential — usable for
// n ≤ ~22 — and exists to validate the spectral lower bound
// h(G) ≥ (d−λ)/2 and the trivial upper bound h(G) ≤ d on small
// instances, grounding the verified overlays' expansion claims in
// ground truth rather than estimates.
func ExactEdgeExpansion(g *graph.Graph) float64 {
	n := g.N()
	if n < 2 || n > 25 {
		return 0
	}
	best := math.Inf(1)
	w := bitset.New(n)
	for mask := uint64(1); mask < 1<<n; mask++ {
		size := bits.OnesCount64(mask)
		if size == 0 || 2*size > n {
			continue
		}
		w.Clear()
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				w.Add(i)
			}
		}
		boundary := 0
		w.ForEach(func(u int) {
			for _, v := range g.Neighbors(u) {
				if !w.Contains(v) {
					boundary++
				}
			}
		})
		if ratio := float64(boundary) / float64(size); ratio < best {
			best = ratio
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

// EdgeExpansion returns a lower-bound estimate of the edge expansion
// ratio h(G) = min |∂W|/|W| over |W| ≤ n/2, via the spectral bound
// h(G) ≥ (d − λ)/2 for d-regular graphs (the "easy side" of Cheeger).
func EdgeExpansion(g *graph.Graph, d int, opts Options) float64 {
	lambda := SecondEigenvalue(g, opts)
	h := (float64(d) - lambda) / 2
	if h < 0 {
		return 0
	}
	return h
}

// MixingDeviation returns the largest observed deviation
// |e(A,B) − d|A||B|/n| / sqrt(|A||B|) across sampled disjoint vertex
// pairs of sets, which by the Expander Mixing Lemma must be ≤ λ. It is
// used in tests to cross-validate the eigenvalue estimate against the
// combinatorial statement the proofs actually use.
func MixingDeviation(g *graph.Graph, d, samples, setSize int, seed uint64) float64 {
	n := g.N()
	if 2*setSize > n {
		setSize = n / 2
	}
	if setSize == 0 {
		return 0
	}
	r := rng.New(seed)
	worst := 0.0
	a, b := bitset.New(n), bitset.New(n)
	for s := 0; s < samples; s++ {
		perm := r.Perm(n)
		a.Clear()
		b.Clear()
		for _, v := range perm[:setSize] {
			a.Add(v)
		}
		for _, v := range perm[setSize : 2*setSize] {
			b.Add(v)
		}
		e := g.EdgesBetween(a, b)
		expect := float64(d) * float64(setSize) * float64(setSize) / float64(n)
		dev := math.Abs(float64(e)-expect) / float64(setSize)
		if dev > worst {
			worst = dev
		}
	}
	return worst
}

// Describe returns a one-line summary of the spectral profile of a
// d-regular graph, for logs and CLI output.
func Describe(g *graph.Graph, d int, opts Options) string {
	lambda := SecondEigenvalue(g, opts)
	return fmt.Sprintf("n=%d d=%d λ=%.3f ramanujan-bound=%.3f h(G)≥%.3f",
		g.N(), d, lambda, RamanujanBound(d), (float64(d)-lambda)/2)
}
