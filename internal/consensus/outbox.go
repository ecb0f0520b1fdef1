package consensus

import "lineartime/internal/sim"

// outbox is one machine's send buffer. The engine copies a node's
// envelopes before the node's next Send (sim.Protocol), so a machine
// reuses a single buffer across rounds, grown to the widest round it
// has sent, instead of allocating a slice per node per round. An outbox
// belongs to one machine and is never shared across nodes: the parallel
// engine calls Send on different nodes concurrently.
type outbox []sim.Envelope

// reset empties the buffer with room for n envelopes.
func (b *outbox) reset(n int) {
	if cap(*b) < n {
		*b = make(outbox, 0, n)
	}
	*b = (*b)[:0]
}

// add appends one envelope.
func (b *outbox) add(from, to int, payload sim.Payload) {
	*b = append(*b, sim.Envelope{From: from, To: to, Payload: payload})
}

// fanOut fills the buffer with payload addressed to each target and
// returns it.
func (b *outbox) fanOut(from int, targets []int, payload sim.Payload) []sim.Envelope {
	b.reset(len(targets))
	for _, to := range targets {
		b.add(from, to, payload)
	}
	return *b
}
