package bitset

import (
	"testing"
	"testing/quick"

	"lineartime/internal/rng"
)

func TestAddContainsRemove(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Contains(i) {
			t.Fatalf("fresh set contains %d", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("set does not contain %d after Add", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("set contains 64 after Remove")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []func(*Set){
		func(s *Set) { s.Add(-1) },
		func(s *Set) { s.Add(10) },
		func(s *Set) { s.Contains(10) },
		func(s *Set) { s.Remove(10) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic on out-of-range index", i)
				}
			}()
			fn(New(10))
		}()
	}
}

func TestUnionIntersect(t *testing.T) {
	a, b := New(100), New(100)
	for i := 0; i < 100; i += 2 {
		a.Add(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Add(i)
	}

	u := a.Clone()
	u.UnionWith(b)
	for i := 0; i < 100; i++ {
		want := i%2 == 0 || i%3 == 0
		if u.Contains(i) != want {
			t.Fatalf("union membership of %d = %v, want %v", i, u.Contains(i), want)
		}
	}

	x := a.Clone()
	x.IntersectWith(b)
	for i := 0; i < 100; i++ {
		want := i%6 == 0
		if x.Contains(i) != want {
			t.Fatalf("intersection membership of %d = %v, want %v", i, x.Contains(i), want)
		}
	}

}

func TestFillComplementClear(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 200} {
		s := New(n)
		s.Fill()
		if got := s.Count(); got != n {
			t.Fatalf("n=%d: Fill count = %d", n, got)
		}
		s.Complement()
		if got := s.Count(); got != 0 {
			t.Fatalf("n=%d: complement of full has count %d", n, got)
		}
		s.Add(0)
		s.Clear()
		if got := s.Count(); got != 0 {
			t.Fatalf("n=%d: Clear left count %d", n, got)
		}
	}
}

func TestElementsSorted(t *testing.T) {
	s := New(300)
	want := []int{3, 64, 65, 128, 299}
	for _, i := range []int{299, 65, 3, 128, 64} {
		s.Add(i)
	}
	got := s.Elements()
	if len(got) != len(want) {
		t.Fatalf("Elements len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elements[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestEqualAndSubset(t *testing.T) {
	a, b := New(70), New(70)
	a.Add(1)
	a.Add(69)
	b.Add(1)
	if a.Equal(b) {
		t.Fatal("unequal sets reported Equal")
	}
	if !b.SubsetOf(a) {
		t.Fatal("subset not detected")
	}
	if a.SubsetOf(b) {
		t.Fatal("superset reported as subset")
	}
	b.Add(69)
	if !a.Equal(b) {
		t.Fatal("equal sets reported unequal")
	}
	if a.Equal(New(71)) {
		t.Fatal("sets of different capacity reported Equal")
	}
}

func TestSizeBits(t *testing.T) {
	if got := New(100).SizeBits(); got != 100 {
		t.Fatalf("SizeBits = %d, want 100", got)
	}
}

func TestString(t *testing.T) {
	s := New(10)
	s.Add(1)
	s.Add(7)
	if got := s.String(); got != "{1, 7}" {
		t.Fatalf("String = %q", got)
	}
}

// Property: union is commutative, associative and monotone in Count.
func TestUnionPropertiesQuick(t *testing.T) {
	mk := func(seed uint64, n int) *Set {
		s := New(n)
		r := rng.New(seed)
		for i := 0; i < n/2; i++ {
			s.Add(r.Intn(n))
		}
		return s
	}
	prop := func(seedA, seedB uint64) bool {
		const n = 97
		a, b := mk(seedA, n), mk(seedB, n)
		ab := a.Clone()
		ab.UnionWith(b)
		ba := b.Clone()
		ba.UnionWith(a)
		if !ab.Equal(ba) {
			return false
		}
		if ab.Count() < a.Count() || ab.Count() < b.Count() {
			return false
		}
		return a.SubsetOf(ab) && b.SubsetOf(ab)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ForEach visits exactly Elements() in order.
func TestForEachMatchesElements(t *testing.T) {
	prop := func(seed uint64) bool {
		const n = 150
		s := New(n)
		r := rng.New(seed)
		for i := 0; i < 40; i++ {
			s.Add(r.Intn(n))
		}
		var visited []int
		s.ForEach(func(i int) { visited = append(visited, i) })
		want := s.Elements()
		if len(visited) != len(want) {
			return false
		}
		for i := range want {
			if visited[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestUnionCountMatchesBitAtATime pins the word-parallel UnionCount
// against an Add per member of the other set on random sets, empty and
// full ones included: the same union, a count of exactly the members
// that were new, no bit above the capacity and an untouched argument.
func TestUnionCountMatchesBitAtATime(t *testing.T) {
	r := rng.New(0xB175)
	for _, n := range []int{1, 63, 64, 65, 128, 1000} {
		for trial := 0; trial < 200; trial++ {
			s, other := New(n), New(n)
			ps, po := r.Intn(101), r.Intn(101) // membership percentages, 0 and 100 included
			for i := 0; i < n; i++ {
				if r.Intn(100) < ps {
					s.Add(i)
				}
				if r.Intn(100) < po {
					other.Add(i)
				}
			}
			want, wantOther := s.Clone(), other.Clone()
			wantFresh := 0
			other.ForEach(func(i int) {
				if !want.Contains(i) {
					want.Add(i)
					wantFresh++
				}
			})

			if fresh := s.UnionCount(other); fresh != wantFresh {
				t.Fatalf("n=%d: UnionCount = %d, want %d", n, fresh, wantFresh)
			}
			if !s.Equal(want) {
				t.Fatalf("n=%d: UnionCount left %v, want %v", n, s, want)
			}
			if !other.Equal(wantOther) {
				t.Fatalf("n=%d: UnionCount wrote to its argument", n)
			}
			if s.Count() > n {
				t.Fatalf("n=%d: bits above capacity set", n)
			}
		}
	}
}

func TestUnionCountCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("UnionCount across capacities did not panic")
		}
	}()
	// Same word count, different capacity: the check is on n, not on
	// the backing length.
	New(65).UnionCount(New(128))
}

// TestOverKeepsMembersInCallerWords: a set built over caller words
// reads and writes those words in place, drops bits above its
// capacity, and rejects a word count that does not fit it.
func TestOverKeepsMembersInCallerWords(t *testing.T) {
	words := []uint64{1 << 5, ^uint64(0)}
	s := Over(70, words)
	if !s.Contains(5) || !s.Contains(69) || s.Count() != 1+6 {
		t.Fatalf("Over(70) = %v, want 5 and 64..69", &s)
	}
	if words[1] != 1<<6-1 {
		t.Fatalf("bits above the capacity kept: %#x", words[1])
	}
	s.Add(7)
	if words[0] != 1<<5|1<<7 || &s.Words()[0] != &words[0] {
		t.Fatal("the set does not write the caller's words")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Over with the wrong word count did not panic")
		}
	}()
	Over(65, make([]uint64, 1))
}

// TestLoadWordsMatchesAdds: loading packed membership words gives the
// set n Adds give, with bits at or above the capacity dropped.
func TestLoadWordsMatchesAdds(t *testing.T) {
	r := rng.New(17)
	for _, n := range []int{0, 1, 63, 64, 65, 192, 200} {
		words := make([]uint64, (n+63)/64)
		for i := range words {
			words[i] = r.Uint64()
		}
		want := New(n)
		for j := 0; j < n; j++ {
			if words[j>>6]>>(uint(j)&63)&1 != 0 {
				want.Add(j)
			}
		}
		got := New(n)
		got.Fill() // LoadWords overwrites, it does not merge
		got.LoadWords(words)
		if !got.Equal(want) || got.Count() != want.Count() {
			t.Fatalf("n=%d: LoadWords = %v, want %v", n, got, want)
		}
	}
}

func TestLoadWordsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LoadWords with the wrong word count did not panic")
		}
	}()
	New(65).LoadWords(make([]uint64, 1))
}
