package bitset

import (
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
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

// TestLaneCounterAddWordsMatchesAdd: AddWords(ws) leaves exactly the
// planes one Add per word leaves, at every length 0–300 (no 16-word
// block, whole blocks, and every tail), on counters preloaded by Add
// and AddN — one of them a few counts short of wrapping at 2^32 — and
// over sparse, random and dense words, whose carries reach plane 5 and
// beyond; Below and Flush then agree too.
func TestLaneCounterAddWordsMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	word := func(density int) uint64 {
		switch density {
		case 0:
			return rng.Uint64() & rng.Uint64() & rng.Uint64()
		case 1:
			return rng.Uint64()
		default:
			return ^(rng.Uint64() & rng.Uint64() & rng.Uint64())
		}
	}
	ws := make([]uint64, 300)
	for n := 0; n <= len(ws); n++ {
		for density := 0; density < 3; density++ {
			for i := range ws[:n] {
				ws[i] = word(density)
			}
			var got, want LaneCounter
			for _, c := range []*LaneCounter{&got, &want} {
				c.Add(0xF0F0F0F0F0F0F0F0)
				switch n % 3 {
				case 1:
					c.AddN(0x0123456789ABCDEF, 1000+n)
				case 2:
					c.AddN(^uint64(0), 1<<32-5) // wraps within this add
				}
			}
			got.AddWords(ws[:n])
			for _, w := range ws[:n] {
				want.Add(w)
			}
			if got.planes != want.planes {
				t.Fatalf("n=%d density %d: AddWords planes diverged from one Add per word", n, density)
			}
			if density == 2 && n%3 == 0 && n >= 48 && slices.Max(want.planes[5:]) == 0 {
				t.Fatalf("n=%d: dense words never carried past plane 4", n)
			}
			b := rng.Intn(n + 2)
			if got.Below(b) != want.Below(b) {
				t.Fatalf("n=%d density %d: Below(%d) diverged", n, density, b)
			}
			var gotOut, wantOut [64]int64
			got.Flush(&gotOut)
			want.Flush(&wantOut)
			if gotOut != wantOut || got.planes != want.planes {
				t.Fatalf("n=%d density %d: flushed totals diverged", n, density)
			}
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

// BenchmarkLaneCounterAddWords counts a 192-word column — an extant
// snapshot of the batch-lanes shape — with one AddWords call, beside
// the per-word Add loop it replaces.
func BenchmarkLaneCounterAddWords(b *testing.B) {
	ws := make([]uint64, 192)
	for i := range ws {
		ws[i] = 0x9E3779B97F4A7C15 * uint64(i+1)
	}
	for _, bc := range []struct {
		name string
		add  func(*LaneCounter)
	}{
		{"AddWords", func(c *LaneCounter) { c.AddWords(ws) }},
		{"Add", func(c *LaneCounter) {
			for _, w := range ws {
				c.Add(w)
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var ctr LaneCounter
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctr.Reset()
				bc.add(&ctr)
			}
		})
	}
}

// paths returns the MergeMasked paths this CPU can run — the portable
// loop always, the vector kernel where HasVector was detected — and
// each one's setting of HasVector; t's cleanup restores the detected
// value.
func paths(t *testing.T) []bool {
	t.Helper()
	detected := HasVector
	t.Cleanup(func() { HasVector = detected })
	if detected {
		return []bool{false, true}
	}
	t.Log("no AVX-512 F/DQ/VL + BMI2: the vector kernel is not run")
	return []bool{false}
}

// TestMergeMaskedMatchesGo is the differential test of the merge
// kernel: on both paths, at lengths with and without a tail of fewer
// than 8 words, and for eff empty, one lane, all lanes and random,
// MergeMasked writes exactly the portable loop's words, returns its
// grew and full, and writes nothing past len(src).
func TestMergeMaskedMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, vector := range paths(t) {
		HasVector = vector
		for _, n := range []int{0, 1, 7, 8, 9, 60, 100, 192, 1000} {
			for trial := 0; trial < 40; trial++ {
				effs := []uint64{0, 1 << uint(rng.Intn(64)), ^uint64(0), rng.Uint64()}
				eff := effs[trial%len(effs)]
				src := make([]uint64, n)
				dst := make([]uint64, n+3) // the last 3 words are a guard
				for i := range src {
					src[i] = rng.Uint64() & rng.Uint64()
					switch trial % 3 {
					case 0:
						dst[i] = rng.Uint64() | rng.Uint64()
					case 1:
						dst[i] = ^uint64(0) // full unless eff adds nothing
					}
				}
				for i := n; i < len(dst); i++ {
					dst[i] = rng.Uint64()
				}
				want := append([]uint64(nil), dst...)
				wantGrew, wantFull := mergeMaskedGo(want, src, eff)
				got := append([]uint64(nil), dst...)
				grew, full := MergeMasked(got, src, eff)
				if grew != wantGrew || full != wantFull {
					t.Fatalf("vector=%v n=%d eff=%#x: grew, full = %#x, %#x; want %#x, %#x", vector, n, eff, grew, full, wantGrew, wantFull)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("vector=%v n=%d eff=%#x: word %d = %#x, want %#x", vector, n, eff, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestMergeMaskedFull pins full on hand-made planes: all ones only
// when every merged word is all ones, tail included.
func TestMergeMaskedFull(t *testing.T) {
	for _, vector := range paths(t) {
		HasVector = vector
		for _, n := range []int{1, 7, 8, 13} {
			src := make([]uint64, n)
			dst := make([]uint64, n)
			for i := range dst {
				dst[i] = ^uint64(0)
			}
			dst[n-1] = 0xf0
			src[n-1] = 0x0f
			if grew, full := MergeMasked(dst, src, 0x3); grew != 0x3 || full != 0xf3 {
				t.Fatalf("vector=%v n=%d: grew, full = %#x, %#x; want 0x3, 0xf3", vector, n, grew, full)
			}
			if grew, full := MergeMasked(dst, src, ^uint64(0)); grew != 0xc || full != 0xff {
				t.Fatalf("vector=%v n=%d: grew, full = %#x, %#x; want 0xc, 0xff", vector, n, grew, full)
			}
		}
		if grew, full := MergeMasked(nil, nil, ^uint64(0)); grew != 0 || full != ^uint64(0) {
			t.Fatalf("vector=%v empty: grew, full = %#x, %#x; want 0, all ones", vector, grew, full)
		}
	}
}

func BenchmarkMergeMasked(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	src := make([]uint64, 192)
	dst := make([]uint64, 192)
	for i := range src {
		src[i] = rng.Uint64()
	}
	detected := HasVector
	defer func() { HasVector = detected }()
	for _, vector := range []bool{false, true} {
		if vector && !detected {
			continue
		}
		HasVector = vector
		b.Run(map[bool]string{false: "go", true: "vector"}[vector], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MergeMasked(dst, src, uint64(i)|1)
			}
		})
	}
}

// TestVectorDetection logs which path this machine runs and checks the
// CPUID/XGETBV detection against the kernel's own view: on Linux the
// /proc/cpuinfo flags list AVX-512 only when the OS saves its state,
// so HasVector must be set exactly when avx512f, avx512dq, avx512vl
// and bmi2 are all listed. Off amd64 it is never set.
func TestVectorDetection(t *testing.T) {
	detected := HasVector
	if detected {
		t.Log("kernel path: vector (AVX-512 F/DQ/VL + BMI2)")
	} else {
		t.Logf("kernel path: portable Go loops (GOARCH=%s)", runtime.GOARCH)
	}
	if runtime.GOARCH != "amd64" {
		if detected {
			t.Fatal("HasVector set off amd64")
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to cross-check against: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(val)
			break
		}
	}
	listed := len(flags) > 0
	for _, f := range []string{"avx512f", "avx512dq", "avx512vl", "bmi2"} {
		listed = listed && slices.Contains(flags, f)
	}
	if listed != detected {
		t.Fatalf("HasVector = %v, but /proc/cpuinfo lists avx512f/dq/vl and bmi2: %v", detected, listed)
	}
}
