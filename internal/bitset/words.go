package bitset

import "math/bits"

// Word-level helpers for the bit-sliced engine (internal/sim/sliced.go):
// a uint64 is a vector of 64 lanes, one independent simulation replica
// per bit. These are the primitive ops the sliced hot path is written
// in, kept here so the engine, protocols and tests share one vocabulary.

// LaneMask returns a word with the low k lanes set. k must be in
// [0, 64]; LaneMask(64) is all ones.
func LaneMask(k int) uint64 {
	if k <= 0 {
		return 0
	}
	if k >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << k) - 1
}

// laneCounterPlanes bounds a LaneCounter at 2^32-1 adds between
// flushes — far beyond any per-round message count a simulation can
// stage in memory.
const laneCounterPlanes = 32

// LaneCounter is a vertical (bit-plane) per-lane event counter: Add
// increments the count of every set lane of the mask at a cost of
// O(carry chain) word ops, not 64 scalar increments. Plane p holds bit
// p of each lane's count, so the counter is a 64-wide carry-save adder;
// Flush materializes the per-lane totals into an accumulator and resets
// the planes. The zero value is ready to use.
type LaneCounter struct {
	planes [laneCounterPlanes]uint64
}

// Add increments the count of every lane set in mask by one.
func (c *LaneCounter) Add(mask uint64) { c.addAt(0, mask) }

// addAt adds w at plane p: each set lane of w gains 2^p.
func (c *LaneCounter) addAt(p int, w uint64) {
	for ; w != 0 && p < laneCounterPlanes; p++ {
		carry := c.planes[p] & w
		c.planes[p] ^= w
		w = carry
	}
}

// csa is a carry-save adder over 64 lanes: per lane, a+b+c = 2·hi + lo.
func csa(a, b, c uint64) (hi, lo uint64) {
	u := a ^ b
	return a&b | u&c, u ^ c
}

// AddWords increments the count of every lane by the number of words
// of ws it is set in, as one Add per word would. It is a Harley–Seal
// tree: each block of 16 words folds through carry-save adders into
// local ones, twos, fours and eights planes and one plane-4 carry, so a
// block costs 15 adders and one carry chain instead of 16; the local
// planes spill into the counter at the end.
func (c *LaneCounter) AddWords(ws []uint64) {
	var ones, twos, fours, eights uint64
	for ; len(ws) >= 16; ws = ws[16:] {
		var twosA, twosB, foursA, foursB, eightsA, eightsB, sixteens uint64
		twosA, ones = csa(ones, ws[0], ws[1])
		twosB, ones = csa(ones, ws[2], ws[3])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, ws[4], ws[5])
		twosB, ones = csa(ones, ws[6], ws[7])
		foursB, twos = csa(twos, twosA, twosB)
		eightsA, fours = csa(fours, foursA, foursB)
		twosA, ones = csa(ones, ws[8], ws[9])
		twosB, ones = csa(ones, ws[10], ws[11])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, ws[12], ws[13])
		twosB, ones = csa(ones, ws[14], ws[15])
		foursB, twos = csa(twos, twosA, twosB)
		eightsB, fours = csa(fours, foursA, foursB)
		sixteens, eights = csa(eights, eightsA, eightsB)
		c.addAt(4, sixteens)
	}
	for _, w := range ws { // the tail, through half adders
		w, ones = ones&w, ones^w
		w, twos = twos&w, twos^w
		w, fours = fours&w, fours^w
		w, eights = eights&w, eights^w
		c.addAt(4, w)
	}
	c.addAt(0, ones)
	c.addAt(1, twos)
	c.addAt(2, fours)
	c.addAt(3, eights)
}

// AddN increments the count of every lane set in mask by k, as k calls
// of Add(mask) would (counts wrap modulo 2^32 the same way): k's binary
// digits are added plane by plane through one full adder per plane, so
// a run of k equal masks costs O(log k + carry chain) word ops.
func (c *LaneCounter) AddN(mask uint64, k int) {
	var carry uint64
	for p := 0; p < laneCounterPlanes && (k>>p != 0 || carry != 0); p++ {
		var a uint64 // bit p of k, on the lanes of mask
		if k>>p&1 != 0 {
			a = mask
		}
		w := c.planes[p]
		c.planes[p] = w ^ a ^ carry
		carry = w&a | w&carry | a&carry
	}
}

// Flush adds the per-lane counts accumulated since the last Flush (or
// Reset) into out and resets the counter.
func (c *LaneCounter) Flush(out *[64]int64) {
	for p := 0; p < laneCounterPlanes; p++ {
		w := c.planes[p]
		if w == 0 {
			continue
		}
		c.planes[p] = 0
		inc := int64(1) << p
		for w != 0 {
			out[bits.TrailingZeros64(w)] += inc
			w &= w - 1
		}
	}
}

// Reset clears the counter without flushing.
func (c *LaneCounter) Reset() {
	for p := range c.planes {
		c.planes[p] = 0
	}
}

// Below returns the mask of lanes whose accumulated count is strictly
// less than k, without flushing or disturbing the planes. It is the
// word-parallel comparator of the vertical counter: a bit-sliced
// subtract count-k computed plane by plane, whose final borrow is
// exactly the lanes with count < k. Lanes that saw no Add at all have
// count 0 and are below any positive k. k ≥ 2^32 saturates (every lane
// is below); k ≤ 0 returns 0.
func (c *LaneCounter) Below(k int) uint64 {
	if k <= 0 {
		return 0
	}
	if k >= 1<<laneCounterPlanes {
		return ^uint64(0)
	}
	var borrow uint64
	for p := 0; p < laneCounterPlanes; p++ {
		var kp uint64 // bit p of k, broadcast to all lanes
		if k&(1<<p) != 0 {
			kp = ^uint64(0)
		}
		a := c.planes[p]
		borrow = (^a & (kp | borrow)) | (kp & borrow)
	}
	return borrow
}

// HasVector reports whether this CPU runs the amd64 vector kernels —
// MergeMasked here and the sliced engine's link-hash kernel in
// internal/sim: AVX-512 F/DQ/VL with the OS saving ZMM state, and
// BMI2. It is detected once at init and is false on other CPUs and
// architectures, which run the portable Go loops; those loops are also
// the oracle the kernels are tested against, and tests clear HasVector
// to force them. Nothing else writes it.
var HasVector = hasVector()

// MergeMasked ORs src&eff into dst word by word (len(dst) must be at
// least len(src)) and returns grew, the bits that merge set which dst
// lacked, and full, the AND of the merged words (all ones for an empty
// src). It is the sliced engine's set merge: src and dst are one set's
// 64-lane planes, eff the lanes the merge applies in, and full the
// lanes in which dst now holds every element.
func MergeMasked(dst, src []uint64, eff uint64) (grew, full uint64) {
	dst = dst[:len(src)]
	if HasVector {
		return mergeMaskedAVX512(dst, src, eff)
	}
	return mergeMaskedGo(dst, src, eff)
}

// mergeMaskedGo is MergeMasked's portable loop.
func mergeMaskedGo(dst, src []uint64, eff uint64) (grew, full uint64) {
	dst = dst[:len(src)]
	full = ^uint64(0)
	for u, w := range src {
		w &= eff
		d := dst[u]
		grew |= w &^ d
		d |= w
		dst[u] = d
		full &= d
	}
	return grew, full
}

// Transpose64 transposes a 64×64 bit matrix in place: bit c of row r
// becomes bit r of row c. It is the bridge between the sliced engine's
// two layouts — 64 lane words indexed by element become 64 element
// words indexed by lane — by recursive block swaps, 6 × 32 word pairs
// instead of 4,096 bit tests.
func Transpose64(m *[64]uint64) {
	mask := uint64(0x00000000FFFFFFFF)
	for j := uint(32); j != 0; {
		for k := uint(0); k < 64; k = (k + j + 1) &^ j {
			t := (m[k]>>j ^ m[k+j]) & mask
			m[k] ^= t << j
			m[k+j] ^= t
		}
		j >>= 1
		mask ^= mask << j
	}
}
