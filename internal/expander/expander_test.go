package expander

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"lineartime/internal/bitset"
	"lineartime/internal/graph"
	"lineartime/internal/rng"
)

func mustOverlay(t *testing.T, n int, opts Options) *Overlay {
	t.Helper()
	o, err := New(n, opts)
	if err != nil {
		t.Fatalf("New(%d): %v", n, err)
	}
	return o
}

// isRegular reports whether every vertex of g has degree d.
func isRegular(g *graph.Graph, d int) bool {
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != d {
			return false
		}
	}
	return true
}

func TestNewVerifiedOverlay(t *testing.T) {
	for _, n := range []int{50, 128, 500} {
		o := mustOverlay(t, n, Options{Seed: 1})
		if !isRegular(o.G, o.P.Degree) {
			t.Fatalf("n=%d: overlay not regular", n)
		}
		if !o.G.IsConnected() {
			t.Fatalf("n=%d: overlay disconnected", n)
		}
		// Spectral verification runs when the overlay is sparse
		// (4d < n); denser overlays skip it by design.
		if 4*o.P.Degree < n && (o.Lambda <= 0 || math.IsNaN(o.Lambda)) {
			t.Fatalf("n=%d: missing verified λ", n)
		}
	}
}

func TestTinyOverlayIsComplete(t *testing.T) {
	o := mustOverlay(t, 5, Options{Seed: 1})
	if o.P.Degree != 4 || o.G.N() != 5 || !isRegular(o.G, 4) {
		t.Fatalf("tiny overlay not K_5: n=%d d=%d", o.G.N(), o.P.Degree)
	}
}

func TestNewRejectsBadN(t *testing.T) {
	if _, err := New(0, Options{}); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestParams(t *testing.T) {
	o := mustOverlay(t, 256, Options{Seed: 1})
	if o.P.Gamma != 2+8 {
		t.Fatalf("γ = %d, want 10 for n=256", o.P.Gamma)
	}
	if o.P.Delta != o.P.Degree/4 {
		t.Fatalf("δ = %d, want d/4 = %d", o.P.Delta, o.P.Degree/4)
	}
	if o.P.Ell <= 0 || o.P.Ell > 256 {
		t.Fatalf("ℓ = %d out of range", o.P.Ell)
	}
}

func TestPaperConstants(t *testing.T) {
	d := PaperDegree()
	if d != 390625 {
		t.Fatalf("PaperDegree = %d, want 5^8", d)
	}
	// δ(5^8) = (5^7 − 5^5)/2 = (78125 − 3125)/2 = 37500.
	if got := PaperDeltaFloat(d); math.Abs(got-37500) > 1 {
		t.Fatalf("PaperDeltaFloat(5^8) = %v, want 37500", got)
	}
	// ℓ(n, 5^8) = 4n·5^{−1} = 4n/5.
	if got := PaperEll(1000000, d); got != 800000 {
		t.Fatalf("PaperEll(1e6, 5^8) = %d, want 800000", got)
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := CeilLog2(n); got != want {
			t.Errorf("CeilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSurvivalSubsetInvariants(t *testing.T) {
	o := mustOverlay(t, 200, Options{Seed: 3})
	b := bitset.New(200)
	r := rng.New(7)
	for b.Count() < 160 {
		b.Add(r.Intn(200))
	}
	delta := o.P.Delta
	c := o.SurvivalSubset(b, delta)
	if !c.SubsetOf(b) {
		t.Fatal("survival subset not a subset of B")
	}
	c.ForEach(func(v int) {
		if d := o.G.DegreeIn(v, c); d < delta {
			t.Fatalf("vertex %d has only %d < δ=%d neighbors inside C", v, d, delta)
		}
	})
}

// Property: the survival subset is maximal — adding back any removed
// vertex must leave it with < δ neighbors in C ∪ {v}.
func TestSurvivalSubsetMaximalQuick(t *testing.T) {
	o := mustOverlay(t, 120, Options{Seed: 5})
	prop := func(seed uint64) bool {
		b := bitset.New(120)
		r := rng.New(seed)
		for b.Count() < 90 {
			b.Add(r.Intn(120))
		}
		delta := o.P.Delta
		c := o.SurvivalSubset(b, delta)
		ok := true
		b.ForEach(func(v int) {
			if c.Contains(v) {
				return
			}
			cv := c.Clone()
			cv.Add(v)
			if o.G.DegreeIn(v, cv) >= delta {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactnessOnLargeSets(t *testing.T) {
	// Theorem 2 shape: removing up to t = n/5 vertices still leaves a
	// δ-survival subset covering most of the remainder.
	o := mustOverlay(t, 300, Options{Seed: 11})
	b := bitset.New(300)
	b.Fill()
	r := rng.New(13)
	removed := 0
	for removed < 60 { // t = n/5
		v := r.Intn(300)
		if b.Contains(v) {
			b.Remove(v)
			removed++
		}
	}
	c, ok := o.VerifyCompactness(b, o.P.Ell, o.P.Delta)
	if !ok {
		t.Fatalf("compactness failed: survival set has %d < 3ℓ/4 = %d vertices",
			c.Count(), 3*o.P.Ell/4)
	}
}

func TestDenseNeighborhoodFullSet(t *testing.T) {
	o := mustOverlay(t, 128, Options{Seed: 2})
	all := bitset.New(128)
	all.Fill()
	// With no faults every vertex has a dense neighborhood (its whole
	// γ-ball, each inner vertex keeping full degree d ≥ δ).
	for _, v := range []int{0, 17, 127} {
		if !o.HasDenseNeighborhood(v, all, o.P.Gamma, o.P.Delta) {
			t.Fatalf("vertex %d lacks dense neighborhood in fault-free graph", v)
		}
	}
}

func TestDenseNeighborhoodIsolatedVertex(t *testing.T) {
	o := mustOverlay(t, 128, Options{Seed: 2})
	// A vertex whose entire neighborhood is removed cannot have a
	// dense neighborhood for δ ≥ 1.
	v := 5
	b := bitset.New(128)
	b.Fill()
	for _, w := range o.G.Neighbors(v) {
		b.Remove(w)
	}
	if o.HasDenseNeighborhood(v, b, o.P.Gamma, o.P.Delta) {
		t.Fatal("isolated vertex reported dense neighborhood")
	}
	if o.HasDenseNeighborhood(v, bitset.New(128), o.P.Gamma, o.P.Delta) {
		t.Fatal("vertex outside B reported dense neighborhood")
	}
}

func TestBroadcastGraph(t *testing.T) {
	o, err := NewBroadcastGraph(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if o.P.Degree < 64 {
		t.Fatalf("H degree = %d, want ≥ 64", o.P.Degree)
	}
	small, err := NewBroadcastGraph(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if small.P.Degree != 9 {
		t.Fatalf("small H degree = %d, want 9 (complete)", small.P.Degree)
	}
}

func TestInquiryFamilyDegreesDouble(t *testing.T) {
	f := NewInquiryFamily(512, 8, 1)
	prev := 0
	for i := 1; i <= f.MaxPhases(); i++ {
		o, err := f.Phase(i)
		if err != nil {
			t.Fatalf("phase %d: %v", i, err)
		}
		d := o.P.Degree
		if i > 1 && d < prev {
			t.Fatalf("phase %d degree %d decreased from %d", i, d, prev)
		}
		prev = d
	}
	if prev < 255 {
		t.Fatalf("final phase degree %d does not saturate toward n", prev)
	}
	if _, err := f.Phase(0); err == nil {
		t.Fatal("phase 0 accepted")
	}
}

func TestInquiryFamilyMemoized(t *testing.T) {
	f := NewInquiryFamily(64, 8, 9)
	a, err := f.Phase(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Phase(2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("family not memoized")
	}
}

func TestDescribe(t *testing.T) {
	o := mustOverlay(t, 64, Options{Seed: 1})
	if s := o.Describe(); !strings.Contains(s, "overlay n=64") {
		t.Fatalf("Describe output unexpected: %q", s)
	}
}
