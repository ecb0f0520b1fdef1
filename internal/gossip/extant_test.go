package gossip

import (
	"slices"
	"testing"

	"lineartime/internal/bitset"
	"lineartime/internal/rng"
)

func randomExtant(r *rng.SplitMix64, n, percent int) *ExtantSet {
	e := NewExtantSet(n)
	for i := 0; i < n; i++ {
		if r.Intn(100) < percent {
			e.Update(i, Rumor(r.Uint64()))
		}
	}
	return e
}

// cloneExtant returns an independent copy of e.
func cloneExtant(e *ExtantSet) *ExtantSet {
	c := NewExtantSet(e.known.Len())
	copy(c.known.Words(), e.known.Words())
	copy(c.rumors, e.rumors)
	c.count = e.count
	return c
}

// TestMergeFromMatchesBitAtATime pins the word-parallel MergeFrom
// against the merge it replaced — an Update per member of the other
// set — on random views: same membership, same rumors (the receiver's
// pair wins where both are proper), a cached count that matches a
// recount, and an untouched argument.
func TestMergeFromMatchesBitAtATime(t *testing.T) {
	r := rng.New(0xE87A)
	for _, n := range []int{1, 63, 64, 65, 128, 1000} {
		for trial := 0; trial < 100; trial++ {
			e := randomExtant(r, n, r.Intn(101))
			other := randomExtant(r, n, r.Intn(101))
			want, wantOther := cloneExtant(e), cloneExtant(other)
			other.known.ForEach(func(node int) { want.Update(node, other.rumors[node]) })

			e.MergeFrom(other)
			if !e.known.Equal(&want.known) || !slices.Equal(e.rumors, want.rumors) {
				t.Fatalf("n=%d: MergeFrom differs from the bit-at-a-time merge", n)
			}
			if e.Count() != e.known.Count() {
				t.Fatalf("n=%d: cached count %d, recount %d", n, e.Count(), e.known.Count())
			}
			if got := (ExtantPayload{Set: e}).SizeBits(); got != n+RumorBits*e.known.Count() {
				t.Fatalf("n=%d: payload bits = %d", n, got)
			}
			if !other.known.Equal(&wantOther.known) || !slices.Equal(other.rumors, wantOther.rumors) {
				t.Fatalf("n=%d: MergeFrom wrote to its argument", n)
			}
		}
	}
}

func TestMergeFromCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MergeFrom across capacities did not panic")
		}
	}()
	NewExtantSet(65).MergeFrom(NewExtantSet(128))
}

// TestSnapshotCopyOnChange pins the snapshot rule on both set kinds:
// one shared copy while the set is unchanged (including merges that
// teach nothing), a new copy once it has grown, and no handed-out copy
// ever written.
func TestSnapshotCopyOnChange(t *testing.T) {
	e := NewExtantSet(70)
	e.Update(3, 42)
	s1 := e.Snapshot()
	if s1 == e || !s1.Present(3) || s1.Rumor(3) != 42 || s1.Count() != 1 {
		t.Fatal("first snapshot is not a copy of the view")
	}
	e.Update(3, 99)
	e.MergeFrom(s1)
	if e.Snapshot() != s1 {
		t.Fatal("unchanged view was cloned again")
	}
	other := NewExtantSet(70)
	other.Update(69, 7)
	e.MergeFrom(other)
	s2 := e.Snapshot()
	if s2 == s1 || s2.Count() != 2 || s2.Rumor(69) != 7 {
		t.Fatal("grown view did not get a new snapshot")
	}
	if s1.Count() != 1 || s1.Present(69) {
		t.Fatal("handed-out snapshot was written")
	}

	c := NewCompletionSet(70)
	if !c.Add(5) || c.Add(5) {
		t.Fatal("Add must report a node new exactly once")
	}
	c1 := c.Snapshot()
	c.MergeFrom(c1)
	if c.Snapshot() != c1 {
		t.Fatal("unchanged completion set was cloned again")
	}
	more := bitset.New(70)
	more.Add(64)
	c.MergeFrom(more)
	c2 := c.Snapshot()
	if c2 == c1 || c2.Count() != 2 || c1.Count() != 1 {
		t.Fatalf("completion snapshots after growth: %v then %v", c1, c2)
	}
}
