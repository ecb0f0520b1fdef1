// Package gossip implements the fault-tolerant gossiping algorithm of
// the paper (§5, Figure 5, Theorem 9) and the all-to-all baseline it
// improves on. Each node starts with a rumor; every non-faulty node
// must decide on an extant set of (node, rumor) pairs that contains
// every node that halted operational and excludes every node that
// crashed before sending anything.
package gossip

import (
	"math/bits"

	"lineartime/internal/bitset"
	"lineartime/internal/sim"
)

// Rumor is a node's input value. 64 bits stands in for "linear size"
// payloads; the simulator's accounting charges RumorBits per pair.
type Rumor uint64

// RumorBits is the wire size charged per rumor.
const RumorBits = 64

// ExtantSet is a node's view: for each node name either a proper pair
// (the rumor) or nil (unknown). Pairs are immutable once proper (§5),
// so a view only grows. The zero value is unusable; use NewExtantSet.
type ExtantSet struct {
	known  bitset.Set
	rumors []Rumor
	count  int        // |known|, kept so sizing a message is O(1)
	snap   *ExtantSet // last Snapshot; current while snap.count == count
	slab   *Slab      // holds the set and its snapshots; nil on a snapshot
}

// NewExtantSet returns an extant set over n nodes with every pair nil.
func NewExtantSet(n int) *ExtantSet {
	e := newExtantSet(n, &Slab{})
	return &e
}

// newExtantSet returns an extant set over n nodes with every pair nil,
// cut from s, which also holds its snapshots.
func newExtantSet(n int, s *Slab) ExtantSet {
	return ExtantSet{known: s.newSet(n), rumors: s.rumors.take(n), slab: s}
}

// Update records the proper pair (node, rumor); later updates for the
// same node are ignored.
func (e *ExtantSet) Update(node int, rumor Rumor) {
	if e.known.Contains(node) {
		return
	}
	e.known.Add(node)
	e.rumors[node] = rumor
	e.count++
}

// Present reports whether node has a proper pair at this extant set.
func (e *ExtantSet) Present(node int) bool { return e.known.Contains(node) }

// Rumor returns node's rumor, valid only when Present(node).
func (e *ExtantSet) Rumor(node int) Rumor { return e.rumors[node] }

// Count returns the number of proper pairs.
func (e *ExtantSet) Count() int { return e.count }

// Known returns a copy of the membership set.
func (e *ExtantSet) Known() *bitset.Set { return e.known.Clone() }

// View returns the membership set and the rumor array, indexed by node,
// without copying either: they are e's own, change as e grows, and must
// not be modified. The array is zero outside the members, except on a
// Snapshot, which shares its source's array.
func (e *ExtantSet) View() (*bitset.Set, []Rumor) { return &e.known, e.rumors }

// MergeFrom absorbs every proper pair of other that is nil here. It
// walks the membership a word at a time — fresh = other &^ e — and
// copies rumors only for the pairs that are new, so absorbing a set
// that teaches nothing — the common case once rumors have spread —
// costs n/64 word operations. It panics if the capacities differ; all
// sets of one run share the capacity n.
func (e *ExtantSet) MergeFrom(other *ExtantSet) {
	if e.count == len(e.rumors) {
		return // a full view learns nothing
	}
	if other.known.Len() != e.known.Len() {
		panic("gossip: capacity mismatch in MergeFrom")
	}
	mine := e.known.Words()
	for wi, w := range other.known.Words() {
		fresh := w &^ mine[wi]
		if fresh == 0 {
			continue
		}
		mine[wi] |= fresh
		e.count += bits.OnesCount64(fresh)
		for ; fresh != 0; fresh &= fresh - 1 {
			node := wi<<6 | bits.TrailingZeros64(fresh)
			e.rumors[node] = other.rumors[node]
		}
	}
}

// Snapshot returns a frozen view of e for a message payload: a copy of
// the membership that shares e's rumor array, cut from e's slab, and
// itself never snapshot. The view is never written again — a delayed
// message parks in the engine's delay ring for rounds and one payload
// reaches many receivers — and sharing the rumors keeps it so, because
// a proper pair is immutable: e writes a rumor only for a node it did
// not know, which no earlier snapshot contains, and a snapshot is read
// only at its members. One snapshot serves every message the node
// sends until e next grows: a view only grows, hence an unchanged count
// means an unchanged view, and only a changed one is copied again.
func (e *ExtantSet) Snapshot() *ExtantSet {
	if e.snap == nil || e.snap.count != e.count {
		e.snap = &e.slab.extants.take(1)[0]
		*e.snap = ExtantSet{known: e.slab.copySet(&e.known), rumors: e.rumors, count: e.count}
	}
	return e.snap
}

// CompletionSet is a little node's Part 2 bookkeeping: the nodes its
// extant set is known to have been pushed to, by itself or by a little
// node whose completion set it merged while probing. Like a view it
// only grows. The zero value is unusable; use NewCompletionSet.
type CompletionSet struct {
	set       bitset.Set
	count     int         // |set|
	snap      *bitset.Set // last Snapshot; current while snapCount == count
	snapCount int
	slab      *Slab // holds the set and its snapshots
}

// NewCompletionSet returns an empty completion set over n nodes.
func NewCompletionSet(n int) *CompletionSet {
	c := newCompletionSet(n, &Slab{})
	return &c
}

// newCompletionSet returns an empty completion set over n nodes, cut
// from s, which also holds its snapshots.
func newCompletionSet(n int, s *Slab) CompletionSet {
	return CompletionSet{set: s.newSet(n), slab: s}
}

// Add marks node covered and reports whether it was not before.
func (c *CompletionSet) Add(node int) bool {
	if c.set.Contains(node) {
		return false
	}
	c.set.Add(node)
	c.count++
	return true
}

// Full reports whether every node is covered.
func (c *CompletionSet) Full() bool { return c.count == c.set.Len() }

// MergeFrom absorbs a received completion set, a word at a time, and
// counts the newly covered nodes with a popcount; a full set learns
// nothing.
func (c *CompletionSet) MergeFrom(other *bitset.Set) {
	if c.Full() {
		return
	}
	c.count += c.set.UnionCount(other)
}

// Snapshot returns a copy of the set for a message payload, cut from
// c's slab under ExtantSet.Snapshot's rule: never written again, copied
// again only once the set has grown.
func (c *CompletionSet) Snapshot() *bitset.Set {
	if c.snap == nil || c.snapCount != c.count {
		c.snap = &c.slab.sets.take(1)[0]
		*c.snap, c.snapCount = c.slab.copySet(&c.set), c.count
	}
	return c.snap
}

// Payload types of the gossip protocol. Sizes follow the paper's
// "messages of linear size" accounting: an extant-set message costs a
// membership bitmap plus the carried rumors.

// PairPayload is a response carrying one proper pair. Gossip sends its
// own pair by pointer, from the machine that holds it.
type PairPayload struct {
	Node  int
	Value Rumor
}

// SizeBits implements sim.Payload: a node name plus a rumor.
func (PairPayload) SizeBits() int { return 16 + RumorBits }

// ExtantPayload carries a whole extant set.
type ExtantPayload struct {
	Set *ExtantSet
}

// SizeBits implements sim.Payload.
func (p ExtantPayload) SizeBits() int {
	return p.Set.known.Len() + RumorBits*p.Set.count
}

// CompletionPayload carries a completion set (Part 2 bookkeeping).
type CompletionPayload struct {
	Set *bitset.Set
}

// SizeBits implements sim.Payload.
func (p CompletionPayload) SizeBits() int { return p.Set.Len() }

var (
	_ sim.Payload = PairPayload{}
	_ sim.Payload = ExtantPayload{}
	_ sim.Payload = CompletionPayload{}
)
