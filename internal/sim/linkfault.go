package sim

import (
	"fmt"
	"slices"
)

// The link/fault-injection layer. The engine's fault surface used to be
// a single crash-shaped hook (an Adversary whose FilterSend could only
// truncate a dying node's final multicast); it is now a two-level
// LinkFault abstraction that the §2 adversary taxonomy maps onto:
//
//   - the node level (LinkFault.FilterSend) sees a sender's whole
//     outbox once per round and may crash the node, delivering only a
//     chosen subset of its final messages — the paper's strongest
//     crash semantics, where a crash interrupts a multicast midway;
//   - the link level (LinkFilter.FilterLink, optional) classifies each
//     surviving envelope individually: deliver it this round, drop it
//     silently (omission and partition faults), or delay it a bounded
//     number of rounds (asynchrony within a synchronous round budget).
//
// Crash-only faults implement just LinkFault, and for them the engines
// run the exact pre-refactor code path: no per-envelope interface
// calls, no reordering, byte-identical transcripts. Link-level faults
// additionally implement LinkFilter; delayed envelopes park in a
// reusable ring (delayRing, one slot per future round, recycled like
// the single-port rings of ports.go), so the hot path stays
// allocation-free in steady state.
//
// Accounting: Metrics counts traffic at send time, after the node
// level but before the link level — a message a correct node sends
// costs its bandwidth whether or not the network then loses or delays
// it. Observer.OnMessage fires at the same point.

// LinkFault is the pluggable fault-injection layer of a run: the
// node-level hook every fault model implements. FilterSend is invoked
// once per alive node per round with the node's outbox; returning
// crash=true crashes the node at this round, with only the returned
// subset of its outbox delivered (a crash may interrupt a multicast
// midway). For surviving nodes implementations must return the outbox
// unchanged. Faults that also act on individual envelopes in flight
// implement LinkFilter.
type LinkFault interface {
	FilterSend(round int, from NodeID, outbox []Envelope) (deliver []Envelope, crash bool)
}

// Verdict is a LinkFilter's per-envelope decision: Deliver passes the
// envelope through this round, Drop loses it silently, and DelayBy(k)
// holds it in flight for k extra rounds.
type Verdict int

// The immediate verdicts. Positive values are delays (see DelayBy).
const (
	Deliver Verdict = 0
	Drop    Verdict = -1
)

// DelayBy returns the verdict that delivers an envelope k rounds late.
// k must be positive and at most the filter's MaxDelay; k <= 0 is
// Deliver.
func DelayBy(k int) Verdict {
	if k <= 0 {
		return Deliver
	}
	return Verdict(k)
}

// LinkFilter is implemented by link faults that act on individual
// envelopes in flight — omission, partition and delay models. The
// engine consults FilterLink for every envelope that survives the
// node-level FilterSend. MaxDelay bounds the delay any verdict may
// request (the paper's parameter d); it must be constant for the run,
// and 0 declares a filter that never delays. A verdict delaying beyond
// MaxDelay fails the run with an error.
type LinkFilter interface {
	LinkFault
	FilterLink(round int, env Envelope) Verdict
	MaxDelay() int
}

// NoFailures is the trivial fault layer that touches nothing.
type NoFailures struct{}

// FilterSend implements LinkFault.
func (NoFailures) FilterSend(_ int, _ NodeID, outbox []Envelope) ([]Envelope, bool) {
	return outbox, false
}

var _ LinkFault = NoFailures{}

// delayRing buffers in-flight delayed messages — packed wireMsgs on the
// scalar engines, word-wide SlicedMsgs on the sliced one: one reusable
// slot per future round, indexed by arrival round modulo the window size
// (MaxDelay+1). Slots keep their capacity across rounds, so after the
// run's peak in-flight volume the ring never touches the allocator — the
// same recycling discipline as the single-port rings in ports.go.
type delayRing[T any] struct {
	slots [][]T
}

// recycle returns the ring for a run whose filter delays by at most
// maxDelay: nil when nothing can be delayed, d itself emptied — slot
// capacity kept; a previous run may have completed with messages still
// in flight — when its window already fits, a fresh ring otherwise.
func (d *delayRing[T]) recycle(maxDelay int) *delayRing[T] {
	switch {
	case maxDelay <= 0:
		return nil
	case d == nil || len(d.slots) != maxDelay+1:
		return &delayRing[T]{slots: make([][]T, maxDelay+1)}
	}
	for i := range d.slots {
		d.slots[i] = d.slots[i][:0]
	}
	return d
}

// empty reports whether no message is in flight.
func (d *delayRing[T]) empty() bool {
	for _, slot := range d.slots {
		if len(slot) > 0 {
			return false
		}
	}
	return true
}

// push parks a message for delivery at the given arrival round. The
// arrival must lie within (round, round+MaxDelay] of the current round;
// the engine validates the verdict before pushing.
func (d *delayRing[T]) push(arrival int, m T) {
	i := arrival % len(d.slots)
	d.slots[i] = append(d.slots[i], m)
}

// take returns the messages arriving at the given round and recycles
// the slot. The returned slice is valid until the slot's round comes
// up again, which is at least MaxDelay rounds away.
func (d *delayRing[T]) take(round int) []T {
	i := round % len(d.slots)
	arrivals := d.slots[i]
	d.slots[i] = arrivals[:0]
	return arrivals
}

// injectArrivals stages the delayed messages arriving at round r and
// returns how many there were. state.round calls it first thing after
// beginRound, so arrivals precede the round's fresh sends in the
// staged buffer; a positive count obliges the caller to re-sort the
// buffer by sender before placing inboxes. Messages still in flight
// when the run completes are lost, like messages to crashed nodes.
// Escape payloads leaving the ring stop pinning the side table (they
// are delivered, and their entries consumed, this round).
func (s *state) injectArrivals(r int) int {
	if s.ring == nil {
		return 0
	}
	arrivals := s.ring.take(r)
	for i := range arrivals {
		if wireIsEscape(arrivals[i].word) {
			s.escLive--
		}
	}
	s.scratch.stage(arrivals)
	return len(arrivals)
}

// stageFiltered routes one sender's fault-surviving envelopes through
// the link filter: verdicts stage, discard, or park each envelope,
// packing the kept ones into wire form. Traffic was already counted —
// a dropped or delayed message still cost its sender the bandwidth.
func (s *state) stageFiltered(r int, deliver []Envelope) error {
	for i := range deliver {
		v := s.filter.FilterLink(r, deliver[i])
		switch {
		case v == Deliver:
			wm, _ := packEnvelope(&deliver[i], &s.esc, 0)
			s.scratch.stage1(wm)
		case v == Drop:
			// Lost in the network; nothing is packed.
		case v < Drop:
			return fmt.Errorf("sim: link fault returned invalid verdict %d", int(v))
		default:
			// v > 0 is a delay of v rounds, so the ring (sized to
			// MaxDelay, nil when that is 0) exists whenever the bound
			// check passes.
			k := int(v)
			if k > s.maxDelay {
				return fmt.Errorf("sim: link fault delayed an envelope by %d rounds, beyond its MaxDelay of %d", k, s.maxDelay)
			}
			wm, _ := packEnvelope(&deliver[i], &s.esc, 0)
			if wireIsEscape(wm.word) {
				s.escLive++
			}
			s.ring.push(r+k, wm)
		}
	}
	return nil
}

// sortStagedBySender restores the staged buffer's sender order after
// delayed arrivals were injected ahead of the round's fresh sends. The
// sort is stable, so messages from the same sender stay in
// chronological (send-round) order — the tie-break the Deliver
// contract promises. In-place symmerge; no allocation.
func sortStagedBySender(flat []wireMsg) {
	slices.SortStableFunc(flat, func(a, b wireMsg) int { return int(a.From) - int(b.From) })
}
