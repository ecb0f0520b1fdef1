package sim

// Outbox is one machine's send buffer. The engine is done reading a
// node's envelopes once the round's Deliver phase begins (Protocol), so
// a machine reuses a single buffer across rounds, grown to the widest
// round it has sent, instead of allocating a slice per node per round.
// An Outbox belongs to one machine and is never shared across nodes: the
// engine reads every node's outbox in place after all of them have sent.
type Outbox []Envelope

// Reset empties the buffer with room for n envelopes.
func (b *Outbox) Reset(n int) {
	if cap(*b) < n {
		*b = make(Outbox, 0, n)
	}
	*b = (*b)[:0]
}

// Add appends one envelope.
func (b *Outbox) Add(from, to NodeID, payload Payload) {
	*b = append(*b, Envelope{From: from, To: to, Payload: payload})
}

// FanOut fills the buffer with payload addressed to each target and
// returns it.
func (b *Outbox) FanOut(from NodeID, targets []NodeID, payload Payload) []Envelope {
	b.Reset(len(targets))
	out := (*b)[:len(targets)]
	for i, to := range targets {
		out[i] = Envelope{From: from, To: to, Payload: payload}
	}
	*b = out
	return out
}

// ToAll returns a fresh buffer of payload addressed to every one of
// nodes 0..n−1 but from, which need not be among them.
func ToAll(from NodeID, n int, payload Payload) []Envelope {
	out := make([]Envelope, 0, n)
	for to := range n {
		if to != from {
			out = append(out, Envelope{From: from, To: to, Payload: payload})
		}
	}
	return out
}
