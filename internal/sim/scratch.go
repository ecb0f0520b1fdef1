package sim

// scratch is the engines' reusable per-round workspace: a CSR-style
// (count-then-place) inbox builder that replaces the per-round
// make([][]Envelope, n) allocation and per-envelope appends of the
// original engine with flat buffers that persist across rounds.
//
// The send phase records every sender's deliverable envelopes in sender
// order while counting per-destination totals. A filter-free round
// records the outbox slice the protocol returned and reads it in place
// (see Protocol.Send); a link-filter round stages the survivors and the
// delayed arrivals into flat, which becomes the round's one source.
// place then prefix-sums the counts into offsets and copies the sources
// into inbox, so each destination's segment is contiguous. Because the
// sources are recorded in increasing sender order and the copy is
// stable, every segment is already sorted by sender — the
// delivery-order guarantee of Protocol.Deliver holds with no per-node
// sort.
//
// Inbox segments alias scratch memory that is overwritten next round;
// the Protocol contract (see Deliver) forbids retaining them.
type scratch struct {
	n      int
	outs   [][]Envelope // the round's sources, in sender order
	flat   []Envelope   // a link-filter round's staged envelopes
	counts []int32      // per-destination counts; reused as scatter cursors
	offs   []int32      // per-destination segment offsets, len n+1
	inbox  []Envelope   // placed envelopes, grouped by destination
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
	s.outs = s.outs[:0]
	s.flat = s.flat[:0]
	clear(s.counts)
}

// stage appends envelopes to flat, counted for their destinations.
func (s *scratch) stage(envs ...Envelope) {
	s.flat = append(s.flat, envs...)
	for i := range envs {
		s.counts[envs[i].To]++
	}
}

// place builds the per-destination inbox segments from the recorded
// sources. Allocation-free once the inbox has grown to the run's peak
// message volume.
func (s *scratch) place() {
	off := int32(0)
	for i, c := range s.counts {
		s.offs[i] = off
		off += c
	}
	s.offs[s.n] = off
	s.inbox = growSlice(s.inbox, int(off))
	// counts has served its purpose; reuse it as the scatter cursors.
	cur := s.counts
	copy(cur, s.offs[:s.n])
	for _, src := range s.outs {
		for i := range src {
			to := src[i].To
			s.inbox[cur[to]] = src[i]
			cur[to]++
		}
	}
}

// inboxOf returns the destination's placed segment, nil when empty.
func (s *scratch) inboxOf(id NodeID) []Envelope {
	lo, hi := s.offs[id], s.offs[id+1]
	if lo == hi {
		return nil
	}
	return s.inbox[lo:hi:hi]
}

// scrub drops every payload and outbox reference the buffers hold, so an
// idle arena pins none of a finished run's memory.
func (s *scratch) scrub() {
	clear(s.outs[:cap(s.outs)])
	clear(s.flat[:cap(s.flat)])
	clear(s.inbox[:cap(s.inbox)])
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
