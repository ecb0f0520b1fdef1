package graph

import (
	"reflect"
	"sort"
	"testing"
)

// The shift construction must be exactly the circulant on its
// generator set: materializing the implicit Neighborhood has to
// reproduce Circulant's adjacency byte for byte, or the
// implicit/materialized parity guarantees upstream are vacuous.
func TestShiftMatchesCirculant(t *testing.T) {
	for _, tc := range []struct {
		n, d int
		seed uint64
	}{
		{n: 16, d: 4, seed: 1},
		{n: 97, d: 8, seed: 7},
		{n: 128, d: 7, seed: 42},
		{n: 500, d: 16, seed: 3},
		{n: 501, d: 16, seed: 3},
		{n: 10, d: 9, seed: 9},
	} {
		s, err := NewShift(tc.n, tc.d, tc.seed)
		if err != nil {
			t.Fatalf("NewShift(%d, %d, %d): %v", tc.n, tc.d, tc.seed, err)
		}
		got := Materialize(s)
		want := Circulant(tc.n, s.Generators())
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d d=%d seed=%d: materialized shift differs from Circulant(gens=%v)",
				tc.n, tc.d, tc.seed, s.Generators())
		}
	}
}

func TestShiftProperties(t *testing.T) {
	for _, tc := range []struct {
		n, d int
		seed uint64
	}{
		{n: 64, d: 6, seed: 11},
		{n: 64, d: 7, seed: 11},
		{n: 101, d: 10, seed: 2},
		{n: 1 << 16, d: 16, seed: 5},
		{n: 9, d: 8, seed: 1}, // k == full: complete graph K_9
	} {
		s, err := NewShift(tc.n, tc.d, tc.seed)
		if err != nil {
			t.Fatalf("NewShift(%d, %d, %d): %v", tc.n, tc.d, tc.seed, err)
		}
		if s.N() != tc.n || s.Degree(0) != tc.d {
			t.Fatalf("n=%d d=%d: got N=%d Degree=%d", tc.n, tc.d, s.N(), s.Degree(0))
		}
		gens := s.Generators()
		for i, g := range gens {
			if g < 1 || g > tc.n/2 {
				t.Errorf("n=%d d=%d: generator %d out of [1, n/2]", tc.n, tc.d, g)
			}
			if i > 0 && gens[i] <= gens[i-1] {
				t.Errorf("n=%d d=%d: generators not strictly ascending: %v", tc.n, tc.d, gens)
			}
		}
		buf := make([]int, 0, tc.d)
		probe := []int{0, 1, tc.n / 2, tc.n - 1}
		for _, v := range probe {
			nbrs := s.AppendNeighbors(v, buf[:0])
			if len(nbrs) != tc.d {
				t.Fatalf("n=%d d=%d v=%d: got %d neighbors", tc.n, tc.d, v, len(nbrs))
			}
			if !sort.IntsAreSorted(nbrs) {
				t.Errorf("n=%d d=%d v=%d: neighbors not sorted: %v", tc.n, tc.d, v, nbrs)
			}
			for i, w := range nbrs {
				if w == v {
					t.Errorf("n=%d d=%d v=%d: self-loop", tc.n, tc.d, v)
				}
				if i > 0 && nbrs[i] == nbrs[i-1] {
					t.Errorf("n=%d d=%d v=%d: duplicate neighbor %d", tc.n, tc.d, v, w)
				}
			}
		}
	}
}

func TestShiftDeterministic(t *testing.T) {
	a, err := NewShift(4096, 16, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewShift(4096, 16, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Generators(), b.Generators()) {
		t.Fatalf("same (n, d, seed) produced different generators: %v vs %v",
			a.Generators(), b.Generators())
	}
	c, err := NewShift(4096, 16, 100)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Generators(), c.Generators()) {
		t.Fatalf("different seeds produced identical generators: %v", a.Generators())
	}
}

func TestShiftConnected(t *testing.T) {
	// Generator 1 present (complete connection set) — connected.
	s, err := NewShift(9, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Connected() {
		t.Fatal("K_9 shift reported disconnected")
	}
	// Hand-built disconnected case: n=12 with gens {3, 6} has
	// gcd 3 — Connected must see through to the gcd criterion.
	d := &Shift{n: 12, deg: 3, gens: []int{3, 6}}
	if d.Connected() {
		t.Fatal("gcd-3 circulant reported connected")
	}
	m := Materialize(d)
	if m.IsConnected() {
		t.Fatal("materialized gcd-3 circulant actually connected; gcd criterion wrong")
	}
}

func TestShiftErrors(t *testing.T) {
	if _, err := NewShift(1, 1, 0); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := NewShift(9, 3, 0); err == nil {
		t.Error("odd degree with odd n accepted")
	}
	if _, err := NewShift(8, 8, 0); err == nil {
		t.Error("degree n accepted")
	}
}

// AppendNeighbors into a pre-sized buffer must not allocate — implicit
// overlays regenerate a neighbor list on every lookup.
func TestShiftAppendNeighborsZeroAlloc(t *testing.T) {
	s, err := NewShift(1<<20, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, 0, s.Degree(0))
	allocs := testing.AllocsPerRun(100, func() {
		buf = s.AppendNeighbors(0, buf[:0])
		buf = s.AppendNeighbors(12345, buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendNeighbors allocated %v allocs/op", allocs)
	}
}

// Graph itself satisfies Neighborhood with identical output.
func TestGraphAppendNeighbors(t *testing.T) {
	g := Circulant(10, []int{1, 3})
	var nb Neighborhood = g
	for v := 0; v < g.N(); v++ {
		got := nb.AppendNeighbors(v, nil)
		if !reflect.DeepEqual(got, g.Neighbors(v)) {
			t.Fatalf("v=%d: AppendNeighbors %v != Neighbors %v", v, got, g.Neighbors(v))
		}
	}
}
