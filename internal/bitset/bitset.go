// Package bitset implements a fixed-capacity bit set used for extant
// sets, completion sets and the vector consensus of the checkpointing
// algorithm (paper §5–§6). A Set of capacity n costs ceil(n/64) words
// and supports the set algebra the protocols need (union, count,
// membership) plus a compact wire-size accounting (n bits).
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

// Set is a fixed-capacity bit set. The zero value is unusable; create
// sets with New. Methods panic on out-of-range indices: indices are
// node names produced by the protocols themselves, so a violation is a
// programming error, not an input error.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set with capacity n (valid indices 0..n-1).
func New(n int) *Set {
	s := Over(n, make([]uint64, WordsFor(n)))
	return &s
}

// WordsFor returns the number of words a set of capacity n keeps its
// members in: ceil(n/64).
func WordsFor(n int) int {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return (n + 63) / 64
}

// Over returns a set of capacity n that keeps its members in the
// caller's words, in place: bit b of words[w] is element 64w+b. It is
// how memory owned elsewhere (a run arena) holds sets without a
// per-set allocation. Bits at or above the capacity are cleared. It
// panics unless words has exactly WordsFor(n) words.
func Over(n int, words []uint64) Set {
	if len(words) != WordsFor(n) {
		panic("bitset: word count mismatch in Over")
	}
	s := Set{n: n, words: words}
	s.trim()
	return s
}

// Words returns the words s keeps its members in, not a copy, laid out
// as Over takes them. Writing them writes s.
func (s *Set) Words() []uint64 { return s.words }

// Len returns the capacity of the set.
func (s *Set) Len() int { return s.n }

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Add inserts i into the set.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// UnionWith adds every element of other to s. It panics if capacities
// differ; all sets inside one protocol run share the capacity n.
func (s *Set) UnionWith(other *Set) {
	if other.n != s.n {
		panic("bitset: capacity mismatch in UnionWith")
	}
	for i, w := range other.words {
		s.words[i] |= w
	}
}

// UnionCount adds every element of other to s and returns how many of
// them s did not hold before: a word at a time, with a popcount of the
// fresh bits. It panics if capacities differ, as UnionWith does.
func (s *Set) UnionCount(other *Set) int {
	if other.n != s.n {
		panic("bitset: capacity mismatch in UnionCount")
	}
	fresh := 0
	for i, w := range other.words {
		if f := w &^ s.words[i]; f != 0 {
			s.words[i] |= f
			fresh += bits.OnesCount64(f)
		}
	}
	return fresh
}

// LoadWords overwrites s with the membership words handed in: bit b of
// words[w] is element 64w+b, bits at or above the capacity are
// ignored. It is how a caller holding sets as packed words (the sliced
// gossip decode) fills a Set without n Adds. It panics unless words has
// exactly the ceil(n/64) words of s, like the capacity checks above.
func (s *Set) LoadWords(words []uint64) {
	if len(words) != len(s.words) {
		panic("bitset: word count mismatch in LoadWords")
	}
	copy(s.words, words)
	s.trim()
}

// IntersectWith removes from s every element not in other.
func (s *Set) IntersectWith(other *Set) {
	if other.n != s.n {
		panic("bitset: capacity mismatch in IntersectWith")
	}
	for i, w := range other.words {
		s.words[i] &= w
	}
}

// Equal reports whether both sets contain exactly the same elements.
func (s *Set) Equal(other *Set) bool {
	if other == nil || other.n != s.n {
		return false
	}
	for i, w := range s.words {
		if other.words[i] != w {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is also in other.
func (s *Set) SubsetOf(other *Set) bool {
	if other.n != s.n {
		return false
	}
	for i, w := range s.words {
		if w&^other.words[i] != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}

// Clear removes all elements.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill adds every index in [0, n).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// Complement flips membership of every index in [0, n).
func (s *Set) Complement() {
	for i := range s.words {
		s.words[i] = ^s.words[i]
	}
	s.trim()
}

// trim zeroes the bits above capacity in the last word.
func (s *Set) trim() {
	if s.n&63 != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << (uint(s.n) & 63)) - 1
	}
}

// Elements returns the members in increasing order.
func (s *Set) Elements() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &= w - 1
		}
	}
	return out
}

// ForEach calls fn for every member in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}

// SizeBits returns the wire size of the set in bits: capacity bits.
// This is the accounting used by the simulator for set-valued payloads.
func (s *Set) SizeBits() int { return s.n }

// String renders the set as {a, b, c} for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", i)
		first = false
	})
	b.WriteByte('}')
	return b.String()
}
