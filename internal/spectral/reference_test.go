package spectral

import (
	"math"
	"testing"

	"lineartime/internal/graph"
	"lineartime/internal/rng"
)

// referenceSecondEigenvalue is SecondEigenvalue as it was before the
// int32 rows, start vector included: one row at a time over the graph's
// adjacency lists, then separate passes for the mean, the subtraction
// and the norm. The test below holds the production estimate to it bit
// for bit.
func referenceSecondEigenvalue(g *graph.Graph, opts Options) float64 {
	n := g.N()
	if n <= 1 {
		return 0
	}
	iters := opts.Iterations
	if iters == 0 {
		iters = 30 + 3*int(math.Log2(float64(n)+1))
	}
	v := referenceUnitDeflated(n, opts.Seed)
	tmp := make([]float64, n)
	var lambdaSq float64
	for i := 0; i < iters; i++ {
		referenceMultiply(g, v, tmp)
		deflate(tmp)
		referenceMultiply(g, tmp, v)
		deflate(v)
		lambdaSq = norm(v)
		if lambdaSq == 0 {
			return 0
		}
		scale(v, 1/lambdaSq)
	}
	return math.Sqrt(lambdaSq)
}

func referenceUnitDeflated(n int, seed uint64) []float64 {
	r := rng.New(seed ^ 0xabcdef12345)
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Float64() - 0.5
	}
	deflate(v)
	l := norm(v)
	if l == 0 {
		v[0] = 1
		deflate(v)
		l = norm(v)
	}
	scale(v, 1/l)
	return v
}

func deflate(v []float64) {
	mean := 0.0
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	for i := range v {
		v[i] -= mean
	}
}

func norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func referenceMultiply(g *graph.Graph, v, out []float64) {
	for u := 0; u < g.N(); u++ {
		sum := 0.0
		for _, w := range g.Neighbors(u) {
			sum += v[w]
		}
		out[u] = sum
	}
}

// TestSecondEigenvalueMatchesReference: λ is Float64bits-equal to the
// reference on random regular graphs (the serve-heavy overlays among
// them, n not a multiple of four too), on the structured graphs, on
// irregular graphs made with Builder — rows of unequal length inside
// one four-row pass, isolated vertices, a graph with no edge, where the
// iteration stops at a zero norm — and for n ≤ 1.
func TestSecondEigenvalueMatchesReference(t *testing.T) {
	var graphs []*graph.Graph
	for _, c := range []struct{ n, d int }{{120, 16}, {128, 8}, {24, 8}, {25, 4}, {27, 6}, {100, 6}, {200, 8}, {64, 40}} {
		for _, seed := range []uint64{1, 2, 3} {
			g, err := graph.RandomRegular(c.n, c.d, seed)
			if err != nil {
				t.Fatal(err)
			}
			graphs = append(graphs, g)
		}
	}
	graphs = append(graphs, graph.Complete(2), graph.Complete(5), graph.Complete(20),
		graph.Cycle(3), graph.Cycle(40), graph.Hypercube(4), graph.Hypercube(7))
	r := rng.New(0x5eed)
	for _, c := range []struct{ n, edges int }{{2, 0}, {3, 1}, {7, 9}, {30, 60}, {61, 400}, {130, 500}} {
		b := graph.NewBuilder(c.n)
		for e := 0; e < c.edges; e++ {
			b.AddEdge(r.Intn(c.n), r.Intn(c.n))
		}
		graphs = append(graphs, b.Build())
	}
	star := graph.NewBuilder(33)
	for v := 1; v < 33; v++ {
		star.AddEdge(0, v)
	}
	graphs = append(graphs, star.Build(), graph.NewBuilder(0).Build(), graph.NewBuilder(1).Build())

	for i, g := range graphs {
		for _, opts := range []Options{{Seed: 1}, {Seed: 0xfeed, Iterations: 7}, {}} {
			want := referenceSecondEigenvalue(g, opts)
			got := SecondEigenvalue(g, opts)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("graph %d (n=%d) %+v: λ = %v (%#x), reference %v (%#x)",
					i, g.N(), opts, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
