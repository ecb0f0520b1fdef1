package graph

import (
	"reflect"
	"testing"
	"testing/quick"

	"lineartime/internal/bitset"
	"lineartime/internal/rng"
)

func setOf(n int, members ...int) *bitset.Set {
	s := bitset.New(n)
	for _, m := range members {
		s.Add(m)
	}
	return s
}

func TestBuilderDedupAndLoops(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(2, 2) // self-loop dropped
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if g.Degree(2) != 0 {
		t.Fatalf("self-loop created degree: %d", g.Degree(2))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
}

func TestCompleteGraph(t *testing.T) {
	g := Complete(6)
	if !g.IsRegular(5) {
		t.Fatal("K_6 not 5-regular")
	}
	if g.NumEdges() != 15 {
		t.Fatalf("K_6 edges = %d, want 15", g.NumEdges())
	}
	if g.Diameter() != 1 {
		t.Fatalf("K_6 diameter = %d, want 1", g.Diameter())
	}
}

func TestCycleGraph(t *testing.T) {
	g := Cycle(8)
	if !g.IsRegular(2) {
		t.Fatal("C_8 not 2-regular")
	}
	if g.Diameter() != 4 {
		t.Fatalf("C_8 diameter = %d, want 4", g.Diameter())
	}
	if !g.IsConnected() {
		t.Fatal("C_8 not connected")
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 || !g.IsRegular(4) {
		t.Fatalf("Q_4 wrong shape: n=%d", g.N())
	}
	if g.Diameter() != 4 {
		t.Fatalf("Q_4 diameter = %d, want 4", g.Diameter())
	}
}

func TestRandomRegular(t *testing.T) {
	cases := []struct{ n, d int }{
		{10, 4}, {50, 6}, {64, 8}, {100, 3}, {31, 4},
	}
	for _, c := range cases {
		g, err := RandomRegular(c.n, c.d, 12345)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", c.n, c.d, err)
		}
		if !g.IsRegular(c.d) {
			t.Fatalf("RandomRegular(%d,%d) not regular", c.n, c.d)
		}
		if !g.IsConnected() {
			t.Fatalf("RandomRegular(%d,%d) disconnected", c.n, c.d)
		}
	}
}

func TestRandomRegularDeterministic(t *testing.T) {
	a, err := RandomRegular(40, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomRegular(40, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 40; v++ {
		av, bv := a.Neighbors(v), b.Neighbors(v)
		if len(av) != len(bv) {
			t.Fatalf("vertex %d degree differs", v)
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("vertex %d adjacency differs", v)
			}
		}
	}
}

func TestRandomRegularErrors(t *testing.T) {
	if _, err := RandomRegular(5, 3, 1); err == nil {
		t.Fatal("odd n*d accepted")
	}
	if _, err := RandomRegular(4, 4, 1); err == nil {
		t.Fatal("d >= n accepted")
	}
	if _, err := RandomRegular(0, 2, 1); err == nil {
		t.Fatal("n = 0 accepted")
	}
	if _, err := RandomRegular(10, 0, 1); err == nil {
		t.Fatal("d = 0 accepted")
	}
}

func TestNeighborhoodGrowth(t *testing.T) {
	g := Cycle(10)
	n1 := g.NeighborhoodOf(0, 1)
	if n1.Count() != 3 { // {9, 0, 1}
		t.Fatalf("N^1 count = %d, want 3", n1.Count())
	}
	n2 := g.NeighborhoodOf(0, 2)
	if n2.Count() != 5 {
		t.Fatalf("N^2 count = %d, want 5", n2.Count())
	}
	if !n1.SubsetOf(n2) {
		t.Fatal("N^1 not subset of N^2")
	}
}

// Property: neighborhoods are monotone in radius for random regular graphs.
func TestNeighborhoodMonotoneQuick(t *testing.T) {
	prop := func(seed uint64, vRaw uint8) bool {
		g, err := RandomRegular(30, 4, seed)
		if err != nil {
			return true // skip unbuildable seeds (shouldn't happen)
		}
		v := int(vRaw) % 30
		prev := g.NeighborhoodOf(v, 0)
		for r := 1; r <= 5; r++ {
			cur := g.NeighborhoodOf(v, r)
			if !prev.SubsetOf(cur) {
				return false
			}
			prev = cur
		}
		return prev.Count() <= 30
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgesBetweenAndVolume(t *testing.T) {
	// Path 0-1-2-3 plus edge 0-2.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(0, 2)
	g := b.Build()

	a := setOf(4, 0, 1)
	c := setOf(4, 2, 3)
	if got := g.EdgesBetween(a, c); got != 2 { // 1-2 and 0-2
		t.Fatalf("EdgesBetween = %d, want 2", got)
	}
	s := setOf(4, 0, 1, 2)
	if got := g.Volume(s); got != 3 { // 0-1, 1-2, 0-2
		t.Fatalf("Volume = %d, want 3", got)
	}
	if got := g.DegreeIn(0, s); got != 2 {
		t.Fatalf("DegreeIn = %d, want 2", got)
	}
}

// Property: handshake — sum over v of DegreeIn(v, S) for v in S equals 2*vol(S).
func TestHandshakeQuick(t *testing.T) {
	prop := func(seed uint64) bool {
		g, err := RandomRegular(24, 4, seed)
		if err != nil {
			return true
		}
		s := bitset.New(24)
		r := seed
		for i := 0; i < 12; i++ {
			r = r*6364136223846793005 + 1442695040888963407
			s.Add(int(r>>33) % 24)
		}
		sum := 0
		s.ForEach(func(v int) { sum += g.DegreeIn(v, s) })
		return sum == 2*g.Volume(s)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Complete(5)
	sub, names := g.InducedSubgraph(setOf(5, 1, 3, 4))
	if sub.N() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("induced K_3 wrong: n=%d m=%d", sub.N(), sub.NumEdges())
	}
	want := []int{1, 3, 4}
	for i, v := range names {
		if v != want[i] {
			t.Fatalf("names[%d] = %d, want %d", i, v, want[i])
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	all := bitset.New(6)
	all.Fill()
	comps := g.ConnectedComponents(all)
	if len(comps) != 4 { // {0,1}, {2,3}, {4}, {5}
		t.Fatalf("components = %d, want 4", len(comps))
	}
	within := setOf(6, 0, 2, 3)
	comps = g.ConnectedComponents(within)
	if len(comps) != 2 {
		t.Fatalf("restricted components = %d, want 2", len(comps))
	}
}

func TestDiameterDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	g := b.Build()
	if g.Diameter() != -1 {
		t.Fatalf("disconnected diameter = %d, want -1", g.Diameter())
	}
}

func TestMinMaxDegree(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	g := b.Build()
	if g.MaxDegree() != 3 || g.MinDegree() != 1 {
		t.Fatalf("min/max degree = %d/%d, want 1/3", g.MinDegree(), g.MaxDegree())
	}
}

// TestRegularFromPairsMatchesBuilder pins the direct adjacency fill of
// RandomRegular against the Builder path it replaced, on randomized
// (n, d, seed): identical sorted lists, and the RNG stream untouched
// (both sides consume the same draws, so equal outputs across retries
// mean the stream did not move).
func TestRegularFromPairsMatchesBuilder(t *testing.T) {
	r := rng.New(0xC0FFEE)
	for trial := 0; trial < 100; trial++ {
		n := 4 + r.Intn(120)
		d := 1 + r.Intn(n/2)
		if n*d%2 != 0 {
			d--
		}
		if d == 0 {
			continue
		}
		seed := r.Uint64()

		// The old construction: repaired pairs through Builder, accepted
		// only when the deduplicated result is d-regular.
		var want *Graph
		ref := rng.New(seed)
		p := newPairing(n, d)
		for attempt := 0; attempt < 32 && want == nil; attempt++ {
			if !p.draw(ref) {
				continue
			}
			b := NewBuilder(n)
			for i := 0; i < len(p.points); i += 2 {
				b.AddEdge(int(p.points[i]), int(p.points[i+1]))
			}
			if want = b.Build(); !want.IsRegular(d) {
				t.Fatalf("n=%d d=%d seed=%d: repaired pairs are not a simple d-regular graph", n, d, seed)
			}
		}

		got, err := RandomRegular(n, d, seed)
		if (err != nil) != (want == nil) {
			t.Fatalf("n=%d d=%d seed=%d: err=%v, Builder path built=%v", n, d, seed, err, want != nil)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(got.adj, want.adj) {
			t.Fatalf("n=%d d=%d seed=%d: adjacency differs from the Builder path", n, d, seed)
		}
		if got.Bytes() != int64(32+24*n+8*n*d) {
			t.Fatalf("n=%d d=%d: Bytes = %d", n, d, got.Bytes())
		}
	}
}

// TestCompleteMatchesBuilder pins the direct adjacency fill of Complete
// against the Builder path it replaced, including the empty (non-nil)
// lists of K_0 and K_1 and sizes either side of a word boundary.
func TestCompleteMatchesBuilder(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 64, 65, 128, 193} {
		b := NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				b.AddEdge(u, v)
			}
		}
		want, got := b.Build(), Complete(n)
		if got.n != want.n || !reflect.DeepEqual(got.adj, want.adj) {
			t.Fatalf("n=%d: Complete differs from the Builder path", n)
		}
		if got.NumEdges() != n*(n-1)/2 {
			t.Fatalf("n=%d: %d edges", n, got.NumEdges())
		}
	}
}
