package sim

import "unsafe"

// The packed message plane. The engines' hot buffers — the CSR scratch
// workspace (scratch.go), the single-port rings (ports.go) and the
// link-fault delay ring (linkfault.go) — do not carry Envelopes but
// wireMsgs: 16 bytes instead of 32, with the payload packed into a
// single word. The crash-model algorithms send one-bit messages (§4
// intro), so the package's own payloads (Bit, Inquiry, Probe) inline
// into the word with no interface header and no dynamic dispatch;
// protocol-defined payloads escape into a side table and the word
// carries the index. Packing happens once at staging time (replacing
// the per-envelope sizeBits devirtualization of the counting loop) and
// unpacking once at delivery, so everything in between — staging,
// re-sorting, ring parking, the cache-missy counting-sort scatter —
// moves half the bytes and never touches an itab.
//
// Word layout (low to high):
//
//	bits 0..1   kind: 0 escape, 1 Bit, 2 Inquiry, 3 Probe
//	bit  2      inline value (Bit value, Probe rumor)
//	bits 16..47 escape index into the side table   (kind 0 only)
//	bits 48..63 escape table id: 0 is the engine's own table,
//	            1+w is parallel worker w's table    (kind 0 only)
//
// Side-table lifecycle: entries are allocated at pack time and the
// whole table is recycled (capacity kept) at the start of any round
// with no cross-round references outstanding — state.escLive counts
// escape words parked in the delay ring or the single-port rings.
// While escapes are in flight the wholesale reset cannot fire, so the
// sequential paths release entries individually instead — at the poll
// that consumes a port-buffered escape, at a dead-node deposit
// discard, when a node dies with undrained in-ports, and (when a
// delay ring is installed) in a post-deliver sweep of the placed
// inbox — and put recycles released slots through a free list. The
// table is therefore bounded by the actually in-flight escape
// population, and its recycled capacity makes packing allocation-free
// in steady state. Parallel workers' tables never park across rounds
// and are simply reset every pack phase.
//
// One entry may serve many messages: packRuns packs a multicast once.
// Shared entries exist only in tables recycled wholesale — the engine's
// own in a multi-port run without a link filter, the parallel workers'.
// Where entries are released one by one none is shared: a single-port
// outbox holds at most one message, and stageFiltered packs per envelope.

// wireMsg is one staged point-to-point message in packed form.
type wireMsg struct {
	From, To int32
	word     uint64
}

const (
	wireKindMask    = 0b11
	wireKindEscape  = 0
	wireKindBit     = 1
	wireKindInquiry = 2
	wireKindProbe   = 3
	wireValueBit    = 1 << 2
	wireEscIdxShift = 16
	wireEscTabShift = 48
	// wireMaxTables caps the parallel worker count: table ids are 16
	// bits, id 0 is the engine's own table.
	wireMaxTables = 1<<16 - 1
)

func wireIsEscape(word uint64) bool { return word&wireKindMask == wireKindEscape }

// packEnvelope packs one validated envelope into wire form, appending
// protocol-defined payloads to the escape table, and returns the
// message's wire size in bits (the paper's accounting unit). table is
// the escape table id the packed word should reference.
func packEnvelope(env *Envelope, esc *escTable, table uint64) (wireMsg, int64) {
	wm := wireMsg{From: int32(env.From), To: int32(env.To)}
	switch p := env.Payload.(type) {
	case Bit:
		wm.word = wireKindBit
		if p {
			wm.word |= wireValueBit
		}
		return wm, 1
	case Inquiry:
		wm.word = wireKindInquiry
		return wm, 1
	case Probe:
		wm.word = wireKindProbe
		if p.Rumor {
			wm.word |= wireValueBit
		}
		return wm, 1
	default:
		idx := esc.put(env.Payload)
		wm.word = wireKindEscape | idx<<wireEscIdxShift | table<<wireEscTabShift
		return wm, int64(p.SizeBits())
	}
}

// packRuns appends one sender's deliverable envelopes to buf in wire
// form, counting them per destination, and returns the grown buffer and
// the envelopes' total size in bits. A run of consecutive envelopes that
// carry the same boxed payload — what Outbox.FanOut produces — is packed
// once: one type switch, one escape entry and one SizeBits call.
func packRuns(buf []wireMsg, counts []int32, deliver []Envelope, esc *escTable, table uint64) ([]wireMsg, int64) {
	var bits int64
	for i := 0; i < len(deliver); {
		wm, b := packEnvelope(&deliver[i], esc, table)
		for first := i; i < len(deliver) && sameBox(deliver[i].Payload, deliver[first].Payload); i++ {
			wm.To = int32(deliver[i].To)
			buf = append(buf, wm)
			counts[wm.To]++
			bits += b
		}
	}
	return buf, bits
}

// sameBox reports whether two payloads are one boxed value: same type and
// data words. Never ==, which compares field by field and panics on a slice.
func sameBox(a, b Payload) bool {
	return *(*[2]uintptr)(unsafe.Pointer(&a)) == *(*[2]uintptr)(unsafe.Pointer(&b))
}

// unpackPayload rebuilds the payload of a packed word. Inline kinds
// materialize without allocation (one-byte values share the runtime's
// static boxes); escapes resolve through the side tables. Read-only on
// the tables, so parallel workers may unpack concurrently.
func (s *state) unpackPayload(word uint64) Payload {
	switch word & wireKindMask {
	case wireKindBit:
		return Bit(word&wireValueBit != 0)
	case wireKindInquiry:
		return Inquiry{}
	case wireKindProbe:
		return Probe{Rumor: word&wireValueBit != 0}
	default:
		idx := uint32(word >> wireEscIdxShift)
		if t := word >> wireEscTabShift; t > 0 {
			return s.par.work[t-1].esc.entries[idx]
		}
		return s.esc.entries[idx]
	}
}

// decodeWireInto materializes a placed segment into the reusable
// Envelope buffer, growing it as needed, and returns the decoded inbox
// (capacity-clipped, so a protocol appending to its inbox cannot
// clobber the buffer) plus the possibly-grown buffer.
func decodeWireInto(s *state, seg []wireMsg, buf []Envelope) ([]Envelope, []Envelope) {
	if len(seg) == 0 {
		return nil, buf
	}
	if cap(buf) < len(seg) {
		buf = make([]Envelope, len(seg))
	}
	out := buf[:len(seg):len(seg)]
	for i := range seg {
		out[i] = Envelope{
			From:    NodeID(seg[i].From),
			To:      NodeID(seg[i].To),
			Payload: s.unpackPayload(seg[i].word),
		}
	}
	return out, buf
}

// escTable is one side table for protocol-defined (non-inline)
// payloads. put allocates an index, preferring slots release has
// recycled; reset drops everything, keeping capacity.
type escTable struct {
	entries []Payload
	free    []uint32
}

func (t *escTable) put(p Payload) uint64 {
	if k := len(t.free); k > 0 {
		i := t.free[k-1]
		t.free = t.free[:k-1]
		t.entries[i] = p
		return uint64(i)
	}
	t.entries = append(t.entries, p)
	return uint64(len(t.entries) - 1)
}

// release recycles one consumed entry. Sequential-engine contexts
// only: the free list is not synchronized.
func (t *escTable) release(i uint32) {
	t.entries[i] = nil
	t.free = append(t.free, i)
}

func (t *escTable) reset() {
	clear(t.entries)
	t.entries = t.entries[:0]
	t.free = t.free[:0]
}

// wireEscIndex extracts an escape word's side-table index.
func wireEscIndex(word uint64) uint32 { return uint32(word >> wireEscIdxShift) }

// releaseDelivered recycles the engine-table escape entries of the
// round's placed (and therefore just-delivered) inbox. It runs only
// when a delay ring is installed: continuous delay traffic can hold
// escLive above zero indefinitely, blocking the wholesale beginRound
// reset, and without this sweep the table would grow with the run's
// total escape traffic instead of its in-flight window.
func (s *state) releaseDelivered() {
	inbox := s.scratch.inbox
	for i := range inbox {
		if w := inbox[i].word; wireIsEscape(w) && w>>wireEscTabShift == 0 {
			s.esc.release(wireEscIndex(w))
		}
	}
}

// releaseDeadPorts drains a dead node's in-port rings, unpinning and
// recycling any buffered escape entries: nothing will ever poll them
// out, and leaving them would hold escLive above zero (and the side
// table growing) for the rest of the run.
func (s *state) releaseDeadPorts(id NodeID) {
	rings := s.ports[id].rings
	for ri := range rings {
		for {
			wm, ok := rings[ri].pop()
			if !ok {
				break
			}
			if wireIsEscape(wm.word) {
				s.escLive--
				s.esc.release(wireEscIndex(wm.word))
			}
		}
	}
}
