// Package rng provides a small deterministic pseudo-random number
// generator used to build reproducible overlay graphs and adversary
// schedules. The whole repository must be deterministic given a seed,
// so no global math/rand state is used anywhere.
package rng

import "math/bits"

// SplitMix64 is a tiny, fast, well-distributed PRNG. It is the
// generator recommended for seeding xoshiro-family generators and has
// a period of 2^64. The zero value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// New returns a generator seeded with the given value.
func New(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next 64-bit value in the sequence.
func (r *SplitMix64) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand semantics; callers control n so this is a programming error.
func (r *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniform value in [0, 1).
func (r *SplitMix64) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *SplitMix64) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
