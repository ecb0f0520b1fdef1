// Package singleport implements Linear-Consensus (§8, Theorem 12): the
// consensus stack compiled to the single-port model, in which a node
// sends at most one message and polls at most one in-port per round,
// and ports buffer silently.
//
// The compilation follows §8's recipe with one engineering
// concretization:
//
//   - AEA Parts 1–2 (constant-degree little overlay G): each original
//     multi-port round becomes 2d single-port rounds — d send slots
//     (one neighbor per slot) then d poll slots (one in-port per slot).
//   - Decision spreading (replacing AEA Part 3 + SCV Part 1): the
//     deciders broadcast over the constant-degree expander H, each
//     multi-port round compiled into 2∆ single-port rounds, for
//     Θ(log n) multi-port rounds.
//   - Straggler resolution (replacing SCV Part 2): a deterministic
//     ring-pull sweep. In sub-phase k (four single-port rounds) every
//     undecided node j inquires node j−k (mod n) and polls for the
//     response; every node polls for inquiries from node j+k and
//     responds if decided. A straggler whose nearest decided live ring
//     predecessor is at distance D decides by sub-phase D, and D is
//     bounded by the crashes plus remaining stragglers — O(t) after
//     the expander spreading — so the sweep runs O(t) sub-phases and
//     sends O(n) messages on the Theorem 12 schedule.
//
// The totals match Theorem 12: O(t + log n) rounds and O(n + t log n)
// one-bit messages.
package singleport

import (
	"lineartime/internal/consensus"
	"lineartime/internal/probe"
	"lineartime/internal/sim"
)

// compiled is what the two §8 consensus machines share: the node's
// port state across the compiled segments of consensus.Schedule. Which
// neighbour a send or poll slot belongs to is a function of the round
// alone, so polling is common to both; only the payloads differ.
type compiled struct {
	id  int
	top *consensus.Topology

	probing   *probe.Probing // little nodes only
	floodNow  bool           // latched: flooding during the current mp-round
	probeNow  bool
	probeRecv int

	decided bool
	hSent   bool // H-broadcast performed
	hNow    bool

	ringInquired bool // inquiry outstanding this sub-phase
	ringAsked    int  // inquirer id to answer this sub-phase, -1 none

	halted bool
}

func newCompiled(id int, top *consensus.Topology) compiled {
	c := compiled{id: id, top: top, ringAsked: -1}
	if top.IsLittle(id) {
		c.probing = probe.New(top.Little.Neighbors(id), top.Little.P.Gamma, top.Little.P.Delta)
	}
	return c
}

// Halted implements sim.Protocol.
func (c *compiled) Halted() bool { return c.halted }

// littleNeighbor returns the little overlay neighbor for a slot, or -1.
func (c *compiled) littleNeighbor(slot int) int {
	if c.probing == nil {
		return -1
	}
	return at(c.top.Little.Neighbors(c.id), slot)
}

func (c *compiled) hNeighbor(slot int) int { return at(c.top.MustBroadcast().Neighbors(c.id), slot) }

// at returns nbrs[slot], or -1 when the slot is past the list.
func at(nbrs []int, slot int) int {
	if slot < 0 || slot >= len(nbrs) {
		return -1
	}
	return nbrs[slot]
}

// ringPeers returns (predecessor, successor-at-offset-k) for sub-phase
// k (1-based) of the ring-pull sweep: the node this one inquires, and
// the node whose inquiries this one answers.
func (c *compiled) ringPeers(k int) (pred, succ int) {
	n := c.top.N
	return (c.id - k + n*((k/n)+1)) % n, (c.id + k) % n
}

// one is the round's single send: p to `to`, nothing when to < 0.
func (c *compiled) one(to int, p sim.Payload) []sim.Envelope {
	if to < 0 {
		return nil
	}
	return []sim.Envelope{{From: c.id, To: to, Payload: p}}
}

// probeTarget returns the little neighbor a probing-segment send slot
// probes, or -1, latching at each compiled round whether the node still
// probes.
func (c *compiled) probeTarget(off int) int {
	d := c.top.Schedule.Little.Degree
	slot := off % (2 * d)
	if slot == 0 {
		c.probeNow = c.probing.Active()
		c.probeRecv = 0
	}
	if c.probeNow && slot < d {
		return c.littleNeighbor(slot)
	}
	return -1
}

// probed closes a compiled probing round after its last poll slot and
// reports whether the node now decides.
func (c *compiled) probed(off int) bool {
	d := c.top.Schedule.Little.Degree
	if c.probing == nil || off%(2*d) != 2*d-1 {
		return false
	}
	c.probing.Observe(off/(2*d), c.probeRecv)
	return c.probing.Done() && c.probing.Survived() && !c.decided
}

// spread sends the decision p over H: a node decided at the start of a
// compiled round sends it to one H neighbor per send slot, once.
func (c *compiled) spread(off int, p sim.Payload) []sim.Envelope {
	delta := c.top.Schedule.Broadcast.Degree
	slot := off % (2 * delta)
	if slot == 0 {
		c.hNow = c.decided && !c.hSent
		if c.hNow {
			c.hSent = true
		}
	}
	if c.hNow && slot < delta {
		return c.one(c.hNeighbor(slot), p)
	}
	return nil
}

// sweep is the ring-pull sweep's send: an undecided node inquires its
// predecessor at distance k, a decided one answers this sub-phase's
// inquirer with p.
func (c *compiled) sweep(off int, p sim.Payload) []sim.Envelope {
	pred, _ := c.ringPeers(off/4 + 1)
	switch off % 4 {
	case 0: // undecided inquire predecessor-at-k
		c.ringAsked = -1
		c.ringInquired = !c.decided && pred != c.id
		if c.ringInquired {
			return c.one(pred, sim.Inquiry{})
		}
	case 2: // respond to this sub-phase's inquirer
		if c.decided && c.ringAsked >= 0 {
			to := c.ringAsked
			c.ringAsked = -1
			return c.one(to, p)
		}
	}
	return nil
}

// Poll implements sim.Poller.
func (c *compiled) Poll(round int) (sim.NodeID, bool) {
	s := &c.top.Schedule
	seg, off := s.SPAt(round)
	from := -1
	switch seg {
	case 1, 2:
		if d := s.Little.Degree; off%(2*d) >= d {
			from = c.littleNeighbor(off%(2*d) - d)
		}
	case 3:
		if delta := s.Broadcast.Degree; off%(2*delta) >= delta {
			from = c.hNeighbor(off%(2*delta) - delta)
		}
	case 4:
		pred, succ := c.ringPeers(off/4 + 1)
		switch {
		case off%4 == 1 && succ != c.id: // listen for inquiries from the node k ahead
			from = succ
		case off%4 == 3 && c.ringInquired && pred != c.id: // collect the response
			from = pred
		}
	}
	if from < 0 {
		return 0, false
	}
	return from, true
}

// noteInquirer records an inquiry polled in the sweep's listening slot.
func (c *compiled) noteInquirer(inbox []sim.Envelope) {
	for _, env := range inbox {
		if _, ok := env.Payload.(sim.Inquiry); ok {
			c.ringAsked = env.From
		}
	}
}

// LinearConsensus is the per-node single-port machine.
type LinearConsensus struct {
	compiled

	candidate bool
	flooded   bool // completed the Part-1 flood
	pending   bool // flood at the next Part-1 multi-port round
	decision  bool
}

// New creates the Linear-Consensus machine for node id with the given
// binary input.
func New(id int, top *consensus.Topology, input bool) *LinearConsensus {
	return &LinearConsensus{compiled: newCompiled(id, top), candidate: input}
}

// Decision returns the consensus decision, if reached.
func (l *LinearConsensus) Decision() (value, ok bool) { return l.decision, l.decided }

// Send implements sim.Protocol (single message per round).
func (l *LinearConsensus) Send(round int) []sim.Envelope {
	seg, off := l.top.Schedule.SPAt(round)
	switch seg {
	case 1: // AEA Part 1 compiled
		if l.probing == nil {
			return nil
		}
		d := l.top.Schedule.Little.Degree
		slot := off % (2 * d)
		if slot == 0 {
			l.floodNow = (off == 0 && l.candidate && !l.flooded) || l.pending
			if l.floodNow {
				l.flooded = true
				l.pending = false
			}
		}
		if l.floodNow && slot < d {
			return l.one(l.littleNeighbor(slot), sim.Bit(true))
		}
	case 2: // probing compiled
		if l.probing != nil {
			return l.one(l.probeTarget(off), sim.Probe{Rumor: sim.Bit(l.candidate)})
		}
	case 3: // H spreading compiled
		return l.spread(off, sim.Bit(l.decision))
	case 4: // ring-pull sweep
		return l.sweep(off, sim.Bit(l.decision))
	}
	return nil
}

// Deliver implements sim.Protocol.
func (l *LinearConsensus) Deliver(round int, inbox []sim.Envelope) {
	seg, off := l.top.Schedule.SPAt(round)
	switch seg {
	case 1:
		for _, env := range inbox {
			if b, ok := env.Payload.(sim.Bit); ok && bool(b) && !l.candidate {
				l.candidate = true
				if !l.flooded {
					l.pending = true
				}
			}
		}
	case 2:
		for _, env := range inbox {
			if p, ok := env.Payload.(sim.Probe); ok {
				l.probeRecv++
				if bool(p.Rumor) && !l.candidate {
					l.candidate = true
				}
			}
		}
		if l.probed(off) {
			l.decided = true
			l.decision = l.candidate
		}
	case 3:
		l.adopt(inbox)
	case 4:
		switch off % 4 {
		case 1:
			l.noteInquirer(inbox)
		case 3:
			l.adopt(inbox)
		}
	}
	if round == l.top.Schedule.SP-1 {
		l.halted = true
	}
}

// adopt takes a polled decision while still undecided.
func (l *LinearConsensus) adopt(inbox []sim.Envelope) {
	for _, env := range inbox {
		if b, ok := env.Payload.(sim.Bit); ok && !l.decided {
			l.decided = true
			l.decision = bool(b)
		}
	}
}

var (
	_ sim.Protocol = (*LinearConsensus)(nil)
	_ sim.Poller   = (*LinearConsensus)(nil)
)
