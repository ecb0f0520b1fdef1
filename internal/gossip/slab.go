package gossip

import (
	"lineartime/internal/bitset"
	"lineartime/internal/consensus"
	"lineartime/internal/sim"
)

// Slab is the memory a system of gossip machines lives in (NewIn): the
// machines with their extant sets, completion sets and probing
// automata, the sets' words and rumor arrays, send buffers, inquirer
// lists, and every snapshot the machines hand out as a payload while
// they run. Each kind is cut from a list of chunks; a cut the chunks
// left cannot hold grows its list by one chunk, and Release clears
// what was cut and rewinds, so building and running a system of the
// same shape on the slab again allocates nothing. The zero Slab is
// empty and ready to use.
type Slab struct {
	machines  chunks[Gossip]
	extants   chunks[ExtantSet]  // extant snapshots
	sets      chunks[bitset.Set] // completion snapshots
	words     chunks[uint64]
	rumors    chunks[Rumor]
	envelopes chunks[sim.Envelope]
	ints      chunks[int]
}

// Release clears everything cut from s, so that it pins no payload,
// and rewinds it for the next system. The machines built on s, and
// every set and payload they handed out, must not be used again.
func (s *Slab) Release() {
	s.machines.reset()
	s.extants.reset()
	s.sets.reset()
	s.words.reset()
	s.rumors.reset()
	s.envelopes.reset()
	s.ints.reset()
}

// Reserve sizes s for the machines NewIn builds for every node of top,
// so that a fresh slab holds them in one chunk of each kind, as long as
// they need, instead of growing into it; the snapshots the machines cut
// while they run still grow chunks as they go.
func (s *Slab) Reserve(top *consensus.Topology) {
	n, bufs := top.N, 0
	for id := range n {
		bufs += sendCap(top, id)
	}
	s.machines.reserve(n)
	s.rumors.reserve(n * n)
	s.words.reserve((n + top.L) * bitset.WordsFor(n))
	s.envelopes.reserve(bufs)
	s.ints.reserve(bufs)
}

// newSet returns an empty set of capacity n over words cut from s.
func (s *Slab) newSet(n int) bitset.Set {
	return bitset.Over(n, s.words.take(bitset.WordsFor(n)))
}

// copySet returns a copy of src over words cut from s.
func (s *Slab) copySet(src *bitset.Set) bitset.Set {
	w := s.words.take(len(src.Words()))
	copy(w, src.Words())
	return bitset.Over(src.Len(), w)
}

// chunks is an arena of Ts. take cuts the next k elements, in order,
// from the current chunk, or from the next one that holds them; past
// the last chunk it appends one of at least twice the last one's
// length. reset clears what was cut and rewinds, and a system that
// spilled past the first chunk leaves one chunk as long as all of
// them in their place, so that the next system of its shape is cut
// from one chunk with no spare tails.
type chunks[T any] struct {
	list [][]T
	cur  int // the chunk the next cut starts in
	used int // elements of list[cur] already cut
}

// take returns the next k zero elements, with no room to append.
func (c *chunks[T]) take(k int) []T {
	if k == 0 {
		return nil
	}
	for ; c.cur < len(c.list); c.cur, c.used = c.cur+1, 0 {
		if ch := c.list[c.cur]; c.used+k <= len(ch) {
			c.used += k
			return ch[c.used-k : c.used : c.used]
		}
	}
	size := k
	if last := len(c.list) - 1; last >= 0 {
		size = max(k, 2*len(c.list[last]))
	}
	c.list = append(c.list, make([]T, size))
	c.used = k
	return c.list[c.cur][:k:k]
}

// reserve makes the first chunk of a rewound arena hold at least k
// elements.
func (c *chunks[T]) reserve(k int) {
	if len(c.list) == 0 || len(c.list[0]) < k {
		clear(c.list)
		c.list = append(c.list[:0], make([]T, k))
	}
}

// reset clears what was cut and rewinds to the first chunk.
func (c *chunks[T]) reset() {
	switch {
	case len(c.list) == 0:
	case c.cur == 0:
		clear(c.list[0][:c.used])
	default:
		n := c.used
		for _, ch := range c.list[:c.cur] {
			n += len(ch)
		}
		clear(c.list)
		c.list = append(c.list[:0], make([]T, n))
	}
	c.cur, c.used = 0, 0
}
