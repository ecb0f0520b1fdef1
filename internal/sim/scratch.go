package sim

// scratch is the engines' reusable per-round workspace: a CSR-style
// (count-then-place) inbox builder that replaces the per-round
// make([][]Envelope, n) allocation and per-envelope appends of the
// original engine with two flat buffers that persist across rounds.
// The buffers carry packed wireMsgs (wire.go), so the staging pass and
// the scatter move 16-byte words instead of 32-byte Envelopes — at
// n=4096 the scatter's random writes touch half the cache lines.
//
// The send phase stages every deliverable message into flat in sender
// order while counting per-destination totals; place then prefix-sums
// the counts into offsets and scatters flat into inbox, so each
// destination's segment is contiguous. Because flat is filled in
// increasing sender order and the scatter is stable, every segment is
// already sorted by sender — the delivery-order guarantee of
// Protocol.Deliver holds with no per-node sort. (The parallel fast
// path computes the same offsets from shard-local counts and lets each
// worker scatter its own staged run; see pool.go.)
//
// Inbox segments alias scratch memory that is overwritten next round;
// the Protocol contract (see Deliver) forbids retaining them.
type scratch struct {
	n      int
	flat   []wireMsg // staged messages, in sender order
	counts []int32   // per-destination counts; reused as scatter cursors
	offs   []int32   // per-destination segment offsets, len n+1
	inbox  []wireMsg // placed messages, grouped by destination
}

// init sizes the workspace for n nodes, keeping whatever buffer
// capacity an earlier run on the same arena already grew.
func (s *scratch) init(n int) {
	s.n = n
	s.counts = growSlice(s.counts, n)
	s.offs = growSlice(s.offs, n+1)
}

// beginRound resets the workspace, keeping capacity.
func (s *scratch) beginRound() {
	s.flat = s.flat[:0]
	clear(s.counts)
}

// stage1 appends one packed message, counted for its destination.
func (s *scratch) stage1(wm wireMsg) {
	s.flat = append(s.flat, wm)
	s.counts[wm.To]++
}

// stage appends a batch of already-packed messages (delayed arrivals
// re-entering from the ring).
func (s *scratch) stage(ms []wireMsg) {
	s.flat = append(s.flat, ms...)
	for i := range ms {
		s.counts[ms[i].To]++
	}
}

// sizeInbox makes the placed buffer hold exactly total messages,
// reusing capacity.
func (s *scratch) sizeInbox(total int) {
	s.inbox = growSlice(s.inbox, total)
}

// place builds the per-destination inbox segments from the staged
// messages. Allocation-free once the buffers have grown to the run's
// peak message volume.
func (s *scratch) place() {
	off := int32(0)
	for i, c := range s.counts {
		s.offs[i] = off
		off += c
	}
	s.offs[s.n] = off
	s.sizeInbox(len(s.flat))
	// counts has served its purpose; reuse it as the scatter cursors.
	cur := s.counts
	copy(cur, s.offs[:s.n])
	for i := range s.flat {
		to := s.flat[i].To
		s.inbox[cur[to]] = s.flat[i]
		cur[to]++
	}
}

// inboxOf returns the destination's placed segment, nil when empty.
func (s *scratch) inboxOf(id NodeID) []wireMsg {
	lo, hi := s.offs[id], s.offs[id+1]
	if lo == hi {
		return nil
	}
	return s.inbox[lo:hi:hi]
}

// growSlice returns buf resized to n, reallocating only when the
// capacity is insufficient. Contents beyond a reused prefix are stale;
// callers clear what they need.
func growSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
