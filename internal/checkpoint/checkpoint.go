// Package checkpoint implements the checkpointing algorithm of the
// paper (§6, Figure 6, Theorem 10) and the direct O(tn)-message
// comparator from the earlier literature it improves on.
//
// Checkpointing must make all non-faulty nodes decide on one common
// extant set of node names that contains every node that halts
// operational and excludes every node that crashed before sending any
// message. The algorithm gossips names (with a dummy rumor), then runs
// n concurrent instances of Few-Crashes-Consensus with combined
// messages — one instance per candidate name.
package checkpoint

import (
	"lineartime/internal/bitset"
	"lineartime/internal/consensus"
	"lineartime/internal/gossip"
	"lineartime/internal/sim"
)

// Checkpointing is the per-node machine of Figure 6. Theorem 10: for
// t < n/5 it runs in O(t + log n·log t) rounds with O(n + t·log n·log t)
// messages.
type Checkpointing struct {
	id  int
	top *consensus.Topology

	gossip *gossip.Gossip
	vector *consensus.VectorFewCrashes
	halted bool
}

// New creates the checkpointing machine for node id.
func New(id int, top *consensus.Topology) *Checkpointing {
	return &Checkpointing{
		id:     id,
		top:    top,
		gossip: gossip.New(id, top, gossip.Rumor(1)), // dummy rumor (§6 Part 1)
	}
}

// Decision returns the decided extant set of node names, if any.
func (c *Checkpointing) Decision() (*bitset.Set, bool) {
	if c.vector == nil {
		return nil, false
	}
	return c.vector.Decision()
}

// handoff seeds the consensus instances with the gossiped membership:
// instance i gets input 1 exactly when node i is present at this node
// (Figure 6 Part 2).
func (c *Checkpointing) handoff() {
	if c.vector != nil {
		return
	}
	c.vector = consensus.NewVectorFewCrashes(c.id, c.top, c.gossip.Extant().Known())
}

// Send implements sim.Protocol.
func (c *Checkpointing) Send(round int) []sim.Envelope {
	s := &c.top.Schedule
	if round < s.Gossip {
		return c.gossip.Send(round)
	}
	c.handoff()
	return c.vector.Send(round - s.Gossip)
}

// Deliver implements sim.Protocol.
func (c *Checkpointing) Deliver(round int, inbox []sim.Envelope) {
	s := &c.top.Schedule
	if round < s.Gossip {
		c.gossip.Deliver(round, inbox)
		return
	}
	c.handoff()
	c.vector.Deliver(round-s.Gossip, inbox)
	if round == s.Checkpoint-1 {
		c.halted = true
	}
}

// Halted implements sim.Protocol.
func (c *Checkpointing) Halted() bool { return c.halted }

var _ sim.Protocol = (*Checkpointing)(nil)
