// Package spectral estimates the spectral quantities of overlay graphs
// that the paper's theorems depend on: for a d-regular graph G with
// adjacency eigenvalues λ1 ≥ ... ≥ λn, the paper requires
// λ = max(|λ2|, |λn|) ≤ 2√(d−1) (the Ramanujan property, §3), from
// which Theorems 1–4 follow via the Expander Mixing Lemma.
//
// We compute λ by power iteration on A² over the space orthogonal to
// the known top eigenvector (the all-ones vector for regular graphs):
// there the top eigenvalue of A² is max(λ2², λn²) = λ², so one
// iteration captures both ends of the spectrum. On a regular graph each
// estimate is the norm of A² on a unit vector of that space, which
// never exceeds λ² and rises toward it as the iterations go on: the
// estimate approaches λ from below. IsNearRamanujan therefore checks an
// estimate, not a proof, and carries a slack for that as well as for
// random regular graphs being only near-Ramanujan.
package spectral

import (
	"math"

	"lineartime/internal/graph"
	"lineartime/internal/rng"
)

// Options configures the eigenvalue estimation.
type Options struct {
	// Iterations of power iteration; 0 means a default chosen from n.
	Iterations int
	// Seed for the deterministic starting vector.
	Seed uint64
}

// SecondEigenvalue estimates λ = max(|λ2|, |λn|) of the adjacency
// matrix of a regular graph g. For non-regular graphs the deflation
// against the all-ones vector is only approximate; callers in this
// repository only pass regular graphs.
func SecondEigenvalue(g *graph.Graph, opts Options) float64 {
	n := g.N()
	if n <= 1 {
		return 0
	}
	iters := opts.Iterations
	if iters == 0 {
		iters = 30 + 3*int(math.Log2(float64(n)+1))
	}
	a := newRows(g)
	// Both vectors carry a zero at index n for the padding columns.
	v := append(randomUnitDeflated(n, opts.Seed), 0)
	tmp := make([]float64, n+1)
	var lambdaSq float64
	for i := 0; i < iters; i++ {
		sum := a.multiply(v, tmp)                           // tmp = A v
		center(tmp[:n], sum/float64(n))                     // stay orthogonal to all-ones
		sum = a.multiply(tmp, v)                            // v = A tmp = A² v_prev
		lambdaSq = math.Sqrt(center(v[:n], sum/float64(n))) // |A² v_prev| on the deflated space
		if lambdaSq == 0 {
			return 0
		}
		scale(v[:n], 1/lambdaSq)
	}
	return math.Sqrt(lambdaSq)
}

// RamanujanBound returns 2√(d−1), the Ramanujan threshold for degree d.
func RamanujanBound(d int) float64 {
	if d <= 1 {
		return 0
	}
	return 2 * math.Sqrt(float64(d-1))
}

// IsNearRamanujan reports whether the estimated λ of the d-regular
// graph g is at most (1+slack) * 2√(d−1). A small positive slack
// (e.g. 0.1) accounts for estimation error and for random regular
// graphs being only near-Ramanujan.
func IsNearRamanujan(g *graph.Graph, d int, slack float64, opts Options) (bool, float64) {
	lambda := SecondEigenvalue(g, opts)
	return lambda <= (1+slack)*RamanujanBound(d), lambda
}

// rows is a graph's adjacency as int32 columns laid out for the power
// iteration: the rows in groups of four, each group's columns
// interleaved — the first column of each of its four rows, then the
// second, and so on — and a row shorter than its group's longest padded
// with column n, whose entry in every vector is zero. A regular graph
// has no padding.
type rows struct {
	n     int
	start []int32 // group g's columns are cols[start[g]:start[g+1]]
	cols  []int32
}

func newRows(g *graph.Graph) rows {
	n := g.N()
	groups := (n + 3) / 4
	a := rows{n: n, start: make([]int32, groups+1)}
	for grp := 0; grp < groups; grp++ {
		width := 0
		for u := 4 * grp; u < min(4*grp+4, n); u++ {
			width = max(width, g.Degree(u))
		}
		a.start[grp+1] = a.start[grp] + int32(4*width)
	}
	a.cols = make([]int32, a.start[groups])
	for u := 0; u < 4*groups; u++ {
		blk := a.cols[a.start[u/4]:a.start[u/4+1]]
		var nbrs []int
		if u < n {
			nbrs = g.Neighbors(u)
		}
		for q := u % 4; q < len(blk); q += 4 {
			blk[q] = int32(n)
			if q/4 < len(nbrs) {
				blk[q] = int32(nbrs[q/4])
			}
		}
	}
	return a
}

// multiply sets out = A v and returns the sum of out, added in row
// order from 0; v and out have a zero at index n. Each pass accumulates
// a group's four rows, so the four sums are independent chains of
// additions. Every row still adds its neighbours in adjacency order
// from 0, and adding the padding's zero leaves a sum that started at +0
// unchanged, so out is bit for bit the row-at-a-time product.
func (a rows) multiply(v, out []float64) float64 {
	total := 0.0
	for grp := 0; grp+1 < len(a.start); grp++ {
		var s0, s1, s2, s3 float64
		for blk := a.cols[a.start[grp]:a.start[grp+1]]; len(blk) >= 4; blk = blk[4:] {
			s0 += v[blk[0]]
			s1 += v[blk[1]]
			s2 += v[blk[2]]
			s3 += v[blk[3]]
		}
		u := 4 * grp
		if u+4 > a.n { // the last group, with rows past n
			last := [4]float64{s0, s1, s2, s3}
			for i, x := range last[:a.n-u] {
				out[u+i] = x
				total += x
			}
			break
		}
		out[u], out[u+1], out[u+2], out[u+3] = s0, s1, s2, s3
		total += s0
		total += s1
		total += s2
		total += s3
	}
	return total
}

// center subtracts mean from every entry of v and returns the sum of
// the centred entries' squares, added in index order from 0.
func center(v []float64, mean float64) float64 {
	s := 0.0
	for i, x := range v {
		x -= mean
		v[i] = x
		s += x * x
	}
	return s
}

// mean returns the mean of v, its entries added in index order from 0.
func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func scale(v []float64, f float64) {
	for i := range v {
		v[i] *= f
	}
}

func randomUnitDeflated(n int, seed uint64) []float64 {
	r := rng.New(seed ^ 0xabcdef12345)
	v := make([]float64, n, n+1) // room for SecondEigenvalue's padding entry
	for i := range v {
		v[i] = r.Float64() - 0.5
	}
	l := math.Sqrt(center(v, mean(v)))
	if l == 0 {
		v[0] = 1
		l = math.Sqrt(center(v, mean(v)))
	}
	scale(v, 1/l)
	return v
}
