package singleport

import (
	"lineartime/internal/bitset"
	"lineartime/internal/consensus"
	"lineartime/internal/sim"
)

// SPVectorConsensus is the single-port compilation of the n-instance
// vector Few-Crashes-Consensus (§6's combined-message consensus bank),
// following the same segment structure as LinearConsensus:
//
//	A: vector flooding on the little overlay, 2d slots per multi-port
//	   round (re-flooding whenever the candidate vector grows);
//	B: local probing with vector probes, 2d slots per round;
//	C: decided-vector spreading over H, 2∆ slots per round;
//	D: ring-pull sweep resolving stragglers with vector responses.
//
// Used by SPCheckpointing; rounds O(t + log n), message count within a
// constant of the multi-port vector run.
type SPVectorConsensus struct {
	compiled

	candidate *bitset.Set
	pending   bool
	decision  *bitset.Set
}

// NewSPVectorConsensus creates the machine for node id with the given
// initial membership vector (ownership is taken).
func NewSPVectorConsensus(id int, top *consensus.Topology, initial *bitset.Set) *SPVectorConsensus {
	return &SPVectorConsensus{compiled: newCompiled(id, top), candidate: initial, pending: true}
}

// Decision returns the decided membership vector, if any.
func (v *SPVectorConsensus) Decision() (*bitset.Set, bool) { return v.decision, v.decided }

// absorb ORs a received vector into the candidate, reporting growth.
func (v *SPVectorConsensus) absorb(s *bitset.Set) bool {
	before := v.candidate.Count()
	v.candidate.UnionWith(s)
	return v.candidate.Count() > before
}

// Send implements sim.Protocol.
func (v *SPVectorConsensus) Send(round int) []sim.Envelope {
	seg, off := v.top.Schedule.SPAt(round)
	switch seg {
	case 1:
		if v.probing == nil {
			return nil
		}
		d := v.top.Schedule.Little.Degree
		slot := off % (2 * d)
		if slot == 0 {
			v.floodNow = v.pending
			v.pending = false
		}
		if v.floodNow && slot < d {
			if to := v.littleNeighbor(slot); to >= 0 {
				return v.one(to, consensus.VectorPayload{Set: v.candidate.Clone()})
			}
		}
	case 2:
		if v.probing == nil {
			return nil
		}
		if to := v.probeTarget(off); to >= 0 {
			return v.one(to, consensus.VectorProbe{Set: v.candidate.Clone()})
		}
	case 3:
		return v.spread(off, consensus.VectorPayload{Set: v.decision})
	case 4:
		return v.sweep(off, consensus.VectorPayload{Set: v.decision})
	}
	return nil
}

// Deliver implements sim.Protocol.
func (v *SPVectorConsensus) Deliver(round int, inbox []sim.Envelope) {
	seg, off := v.top.Schedule.SPAt(round)
	switch seg {
	case 1:
		for _, env := range inbox {
			if p, ok := env.Payload.(consensus.VectorPayload); ok && v.absorb(p.Set) {
				v.pending = true
			}
		}
	case 2:
		for _, env := range inbox {
			if p, ok := env.Payload.(consensus.VectorProbe); ok {
				v.probeRecv++
				v.absorb(p.Set)
			}
		}
		if v.probed(off) {
			v.decided = true
			v.decision = v.candidate.Clone()
		}
	case 3:
		v.adopt(inbox)
	case 4:
		switch off % 4 {
		case 1:
			v.noteInquirer(inbox)
		case 3:
			v.adopt(inbox)
		}
	}
	if round == v.top.Schedule.SP-1 {
		v.halted = true
	}
}

// adopt takes a polled decision vector while still undecided.
func (v *SPVectorConsensus) adopt(inbox []sim.Envelope) {
	for _, env := range inbox {
		if p, ok := env.Payload.(consensus.VectorPayload); ok && !v.decided {
			v.decided = true
			v.decision = p.Set.Clone()
		}
	}
}

var (
	_ sim.Protocol = (*SPVectorConsensus)(nil)
	_ sim.Poller   = (*SPVectorConsensus)(nil)
)

// SPCheckpointing is the single-port checkpointing stack: SPGossip
// followed by SPVectorConsensus, the §8 adaptation of Figure 6 that
// keeps the multi-port communication bounds (Table 1's single-port
// column for checkpointing).
type SPCheckpointing struct {
	id       int
	schedule *GossipSchedule

	gossip    *SPGossip
	vector    *SPVectorConsensus
	gossipEnd int
	halted    bool
}

// NewSPCheckpointing creates the single-port checkpointing machine.
func NewSPCheckpointing(id int, schedule *GossipSchedule) *SPCheckpointing {
	return &SPCheckpointing{
		id:        id,
		schedule:  schedule,
		gossip:    NewSPGossip(id, schedule, 1), // dummy rumor
		gossipEnd: schedule.Length(),
	}
}

// ScheduleLength returns the protocol's fixed round count.
func (c *SPCheckpointing) ScheduleLength() int { return c.gossipEnd + c.schedule.Top.Schedule.SP }

// Decision returns the agreed extant set, if any.
func (c *SPCheckpointing) Decision() (*bitset.Set, bool) {
	if c.vector == nil {
		return nil, false
	}
	return c.vector.Decision()
}

func (c *SPCheckpointing) handoff() {
	if c.vector == nil {
		c.vector = NewSPVectorConsensus(c.id, c.schedule.Top, c.gossip.Extant().Known())
	}
}

// Send implements sim.Protocol.
func (c *SPCheckpointing) Send(round int) []sim.Envelope {
	if round < c.gossipEnd {
		return c.gossip.Send(round)
	}
	c.handoff()
	return c.vector.Send(round - c.gossipEnd)
}

// Poll implements sim.Poller.
func (c *SPCheckpointing) Poll(round int) (sim.NodeID, bool) {
	if round < c.gossipEnd {
		return c.gossip.Poll(round)
	}
	c.handoff()
	return c.vector.Poll(round - c.gossipEnd)
}

// Deliver implements sim.Protocol.
func (c *SPCheckpointing) Deliver(round int, inbox []sim.Envelope) {
	if round < c.gossipEnd {
		c.gossip.Deliver(round, inbox)
		return
	}
	c.handoff()
	c.vector.Deliver(round-c.gossipEnd, inbox)
	if round == c.ScheduleLength()-1 {
		c.halted = true
	}
}

// Halted implements sim.Protocol.
func (c *SPCheckpointing) Halted() bool { return c.halted }

var (
	_ sim.Protocol = (*SPCheckpointing)(nil)
	_ sim.Poller   = (*SPCheckpointing)(nil)
)
