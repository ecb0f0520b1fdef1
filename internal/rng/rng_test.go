package rng

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("generators with equal seeds diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("got %d collisions across different seeds, want 0", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, samples = 10, 100000
	counts := make([]int, n)
	for i := 0; i < samples; i++ {
		counts[r.Intn(n)]++
	}
	want := samples / n
	for i, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("bucket %d has %d samples, want within 20%% of %d", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// mul64 is the hand-written 128-bit product Intn used before it called
// bits.Mul64, kept as the reference the random stream is pinned to.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32

	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// TestMul64 pins bits.Mul64, which Intn multiplies with, to the
// hand-written product on edge cases and a pseudo-random sweep, so the
// bounded draws — and every overlay built from them — never move.
func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{1 << 32, 1 << 32, 1, 0},
		{^uint64(0), ^uint64(0), ^uint64(0) - 1, 1},
		{^uint64(0), 2, 1, ^uint64(0) - 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
		if bhi, blo := bits.Mul64(c.a, c.b); bhi != c.hi || blo != c.lo {
			t.Errorf("bits.Mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, bhi, blo, c.hi, c.lo)
		}
	}
	r := New(11)
	for i := 0; i < 100000; i++ {
		a, b := r.Uint64(), r.Uint64()>>(i%64)
		hi, lo := mul64(a, b)
		if bhi, blo := bits.Mul64(a, b); bhi != hi || blo != lo {
			t.Fatalf("bits.Mul64(%d,%d) = (%d,%d), hand-written (%d,%d)", a, b, bhi, blo, hi, lo)
		}
	}
}
