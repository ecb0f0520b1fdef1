package bitset

import (
	"math/rand"
	"testing"
)

func TestLaneMask(t *testing.T) {
	cases := []struct {
		k    int
		want uint64
	}{
		{-3, 0},
		{0, 0},
		{1, 1},
		{4, 0xF},
		{63, ^uint64(0) >> 1},
		{64, ^uint64(0)},
		{99, ^uint64(0)},
	}
	for _, c := range cases {
		if got := LaneMask(c.k); got != c.want {
			t.Errorf("LaneMask(%d) = %#x, want %#x", c.k, got, c.want)
		}
	}
}

// TestLaneCounterMatchesScalar drives the vertical counter with random
// masks and checks every lane's total against a scalar recount.
func TestLaneCounterMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ctr LaneCounter
	var got, want [64]int64
	for round := 0; round < 5; round++ {
		adds := 1000 + rng.Intn(3000)
		for i := 0; i < adds; i++ {
			mask := rng.Uint64() & rng.Uint64() // sparse-ish
			ctr.Add(mask)
			for lane := 0; lane < 64; lane++ {
				if mask&(1<<lane) != 0 {
					want[lane]++
				}
			}
		}
		ctr.Flush(&got)
		if got != want {
			t.Fatalf("round %d: counter diverged from scalar recount", round)
		}
	}
	// Flush after flush must be a no-op.
	prev := got
	ctr.Flush(&got)
	if got != prev {
		t.Fatal("second Flush changed totals")
	}
}

func TestLaneCounterReset(t *testing.T) {
	var ctr LaneCounter
	ctr.Add(^uint64(0))
	ctr.Add(1)
	ctr.Reset()
	var out [64]int64
	ctr.Flush(&out)
	for lane, v := range out {
		if v != 0 {
			t.Fatalf("lane %d = %d after Reset", lane, v)
		}
	}
}

// TestLaneCounterCarryChain exercises long carry ripples: repeated adds
// of a full mask count up through every plane boundary.
func TestLaneCounterCarryChain(t *testing.T) {
	var ctr LaneCounter
	const adds = 1 << 12
	for i := 0; i < adds; i++ {
		ctr.Add(^uint64(0))
	}
	var out [64]int64
	ctr.Flush(&out)
	for lane, v := range out {
		if v != adds {
			t.Fatalf("lane %d = %d, want %d", lane, v, adds)
		}
	}
}

// TestLaneCounterAddNMatchesRepeatedAdd: AddN(mask, k) leaves exactly
// the planes k Adds of mask leave — wrap-around beyond plane 31
// included — so Below and Flush, interleaved at random, cannot tell the
// two counters apart.
func TestLaneCounterAddNMatchesRepeatedAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ks := []int{0, 1, 2, 3, 7, 8, 255, 1 << 31, 1<<32 - 1}
	// ref stands in for k Adds where k is too large to loop: for every
	// set bit p of k it adds mask·2^p, which is Add's own ripple started
	// at plane p. The tail of the test checks it against real Adds.
	ref := func(c *LaneCounter, mask uint64, k int) {
		for p := 0; p < laneCounterPlanes; p++ {
			if k>>p&1 == 0 {
				continue
			}
			carry := mask
			for q := p; carry != 0 && q < laneCounterPlanes; q++ {
				c.planes[q], carry = c.planes[q]^carry, c.planes[q]&carry
			}
		}
	}
	var got, want LaneCounter
	var gotOut, wantOut [64]int64
	for step := 0; step < 4000; step++ {
		mask := rng.Uint64()
		if step%3 == 0 {
			mask &= rng.Uint64() & rng.Uint64()
		}
		k := ks[rng.Intn(len(ks))]
		got.AddN(mask, k)
		if k <= 255 {
			for i := 0; i < k; i++ {
				want.Add(mask)
			}
		} else {
			ref(&want, mask, k)
		}
		if got.planes != want.planes {
			t.Fatalf("step %d: AddN(%#x, %d) planes diverged from repeated Add", step, mask, k)
		}
		switch rng.Intn(8) {
		case 0:
			got.Flush(&gotOut)
			want.Flush(&wantOut)
			if gotOut != wantOut {
				t.Fatalf("step %d: flushed totals diverged", step)
			}
		case 1:
			b := rng.Intn(600)
			if got.Below(b) != want.Below(b) {
				t.Fatalf("step %d: Below(%d) diverged", step, b)
			}
		}
	}
	// The plane-wise reference is itself k Adds: check it on mid-size k.
	for _, k := range []int{9, 100, 255, 1000} {
		var a, b LaneCounter
		a.Add(0xF0F0)
		b.Add(0xF0F0)
		for i := 0; i < k; i++ {
			a.Add(0xFF00FF)
		}
		ref(&b, 0xFF00FF, k)
		if a.planes != b.planes {
			t.Fatalf("reference adder disagrees with %d Adds", k)
		}
	}
}

// TestTranspose64 checks the bit map (bit c of row r lands at bit r of
// row c) and that transposing twice is the identity, on random matrices
// of varying density.
func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		var m, orig [64]uint64
		for r := range m {
			m[r] = rng.Uint64()
			if trial%2 == 1 {
				m[r] &= rng.Uint64() & rng.Uint64()
			}
		}
		orig = m
		Transpose64(&m)
		for r := 0; r < 64; r++ {
			for c := 0; c < 64; c++ {
				if orig[r]>>c&1 != m[c]>>r&1 {
					t.Fatalf("trial %d: bit %d of row %d did not land at bit %d of row %d", trial, c, r, r, c)
				}
			}
		}
		Transpose64(&m)
		if m != orig {
			t.Fatalf("trial %d: Transpose64 is not an involution", trial)
		}
	}
}

func BenchmarkLaneCounterAddN(b *testing.B) {
	var ctr LaneCounter
	var out [64]int64
	mask := uint64(0x9E3779B97F4A7C15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctr.AddN(mask, 15) // a little node's probing fan-out
		mask = mask<<1 | mask>>63
		if i&0xFFF == 0xFFF {
			ctr.Flush(&out)
		}
	}
}

func BenchmarkTranspose64(b *testing.B) {
	var m [64]uint64
	for r := range m {
		m[r] = 0x9E3779B97F4A7C15 * uint64(r+1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Transpose64(&m)
	}
}

func BenchmarkLaneCounterAdd(b *testing.B) {
	var ctr LaneCounter
	var out [64]int64
	mask := uint64(0x9E3779B97F4A7C15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctr.Add(mask)
		mask = mask<<1 | mask>>63
		if i&0xFFFF == 0xFFFF {
			ctr.Flush(&out)
		}
	}
}
