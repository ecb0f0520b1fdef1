package singleport

import (
	"lineartime/internal/bitset"
	"lineartime/internal/consensus"
	"lineartime/internal/expander"
	"lineartime/internal/probe"
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
	id  int
	top *consensus.Topology

	candidate *bitset.Set
	pending   bool
	floodNow  bool

	probing   *probe.Probing
	probeNow  bool
	probeRecv int

	decided  bool
	decision *bitset.Set
	hSent    bool
	hNow     bool

	ringInquired bool
	ringAsked    int

	halted bool

	d, gamma, delta                    int
	mp1, hRounds, ringPhases           int
	segAEnd, segBEnd, segCEnd, segDEnd int
}

// NewSPVectorConsensus creates the machine for node id with the given
// initial membership vector (ownership is taken).
func NewSPVectorConsensus(id int, top *consensus.Topology, initial *bitset.Set) *SPVectorConsensus {
	v := &SPVectorConsensus{
		id:        id,
		top:       top,
		candidate: initial,
		pending:   true,
		ringAsked: -1,
	}
	v.d = top.Little.P.Degree
	v.gamma = top.Little.P.Gamma
	v.delta = top.MustBroadcast().P.Degree

	v.mp1 = 5*top.T - 1
	if v.mp1 < 1 {
		v.mp1 = 1
	}
	if v.mp1 < v.gamma {
		v.mp1 = v.gamma
	}
	v.hRounds = 2*expander.CeilLog2(top.N) + 4
	v.ringPhases = 6*top.T + expander.CeilLog2(top.N) + 16
	if v.ringPhases > top.N-1 {
		v.ringPhases = top.N - 1
	}

	v.segAEnd = v.mp1 * 2 * v.d
	v.segBEnd = v.segAEnd + v.gamma*2*v.d
	v.segCEnd = v.segBEnd + v.hRounds*2*v.delta
	v.segDEnd = v.segCEnd + 4*v.ringPhases

	if top.IsLittle(id) {
		v.probing = probe.New(top.Little.Neighbors(id), v.gamma, top.Little.P.Delta)
	}
	return v
}

// ScheduleLength returns the protocol's fixed round count.
func (v *SPVectorConsensus) ScheduleLength() int { return v.segDEnd }

// Decision returns the decided membership vector, if any.
func (v *SPVectorConsensus) Decision() (*bitset.Set, bool) { return v.decision, v.decided }

func (v *SPVectorConsensus) position(round int) (seg, off int) {
	switch {
	case round < v.segAEnd:
		return 1, round
	case round < v.segBEnd:
		return 2, round - v.segAEnd
	case round < v.segCEnd:
		return 3, round - v.segBEnd
	case round < v.segDEnd:
		return 4, round - v.segCEnd
	default:
		return 5, 0
	}
}

func (v *SPVectorConsensus) littleNeighbor(slot int) int {
	if v.probing == nil {
		return -1
	}
	nbrs := v.top.Little.Neighbors(v.id)
	if slot < 0 || slot >= len(nbrs) {
		return -1
	}
	return nbrs[slot]
}

func (v *SPVectorConsensus) hNeighbor(slot int) int {
	nbrs := v.top.MustBroadcast().Neighbors(v.id)
	if slot < 0 || slot >= len(nbrs) {
		return -1
	}
	return nbrs[slot]
}

func (v *SPVectorConsensus) ringPeers(k int) (pred, succ int) {
	n := v.top.N
	return (v.id - k + n*((k/n)+1)) % n, (v.id + k) % n
}

// absorb ORs a received vector into the candidate, reporting growth.
func (v *SPVectorConsensus) absorb(s *bitset.Set) bool {
	before := v.candidate.Count()
	v.candidate.UnionWith(s)
	return v.candidate.Count() > before
}

// Send implements sim.Protocol.
func (v *SPVectorConsensus) Send(round int) []sim.Envelope {
	seg, off := v.position(round)
	switch seg {
	case 1:
		if v.probing == nil {
			return nil
		}
		slot := off % (2 * v.d)
		if slot == 0 {
			v.floodNow = v.pending
			v.pending = false
		}
		if v.floodNow && slot < v.d {
			if to := v.littleNeighbor(slot); to >= 0 {
				return []sim.Envelope{{From: v.id, To: to,
					Payload: consensus.VectorPayload{Set: v.candidate.Clone()}}}
			}
		}
	case 2:
		if v.probing == nil {
			return nil
		}
		slot := off % (2 * v.d)
		if slot == 0 {
			v.probeNow = v.probing.Active()
			v.probeRecv = 0
		}
		if v.probeNow && slot < v.d {
			if to := v.littleNeighbor(slot); to >= 0 {
				return []sim.Envelope{{From: v.id, To: to,
					Payload: consensus.VectorProbe{Set: v.candidate.Clone()}}}
			}
		}
	case 3:
		slot := off % (2 * v.delta)
		if slot == 0 {
			v.hNow = v.decided && !v.hSent
			if v.hNow {
				v.hSent = true
			}
		}
		if v.hNow && slot < v.delta {
			if to := v.hNeighbor(slot); to >= 0 {
				return []sim.Envelope{{From: v.id, To: to,
					Payload: consensus.VectorPayload{Set: v.decision}}}
			}
		}
	case 4:
		k := off/4 + 1
		pred, _ := v.ringPeers(k)
		switch off % 4 {
		case 0:
			v.ringAsked = -1
			if !v.decided && pred != v.id {
				v.ringInquired = true
				return []sim.Envelope{{From: v.id, To: pred, Payload: sim.Inquiry{}}}
			}
			v.ringInquired = false
		case 2:
			if v.decided && v.ringAsked >= 0 {
				to := v.ringAsked
				v.ringAsked = -1
				return []sim.Envelope{{From: v.id, To: to,
					Payload: consensus.VectorPayload{Set: v.decision}}}
			}
		}
	}
	return nil
}

// Poll implements sim.Poller.
func (v *SPVectorConsensus) Poll(round int) (sim.NodeID, bool) {
	seg, off := v.position(round)
	switch seg {
	case 1, 2:
		if v.probing == nil {
			return 0, false
		}
		slot := off % (2 * v.d)
		if slot >= v.d {
			if from := v.littleNeighbor(slot - v.d); from >= 0 {
				return from, true
			}
		}
	case 3:
		slot := off % (2 * v.delta)
		if slot >= v.delta {
			if from := v.hNeighbor(slot - v.delta); from >= 0 {
				return from, true
			}
		}
	case 4:
		k := off/4 + 1
		pred, succ := v.ringPeers(k)
		switch off % 4 {
		case 1:
			if succ != v.id {
				return succ, true
			}
		case 3:
			if v.ringInquired && pred != v.id {
				return pred, true
			}
		}
	}
	return 0, false
}

// Deliver implements sim.Protocol.
func (v *SPVectorConsensus) Deliver(round int, inbox []sim.Envelope) {
	seg, off := v.position(round)
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
		if v.probing != nil && off%(2*v.d) == 2*v.d-1 {
			v.probing.Observe(v.probeRecv)
			if v.probing.Done() && v.probing.Survived() && !v.decided {
				v.decided = true
				v.decision = v.candidate.Clone()
			}
		}
	case 3:
		for _, env := range inbox {
			if p, ok := env.Payload.(consensus.VectorPayload); ok && !v.decided {
				v.decided = true
				v.decision = p.Set.Clone()
			}
		}
	case 4:
		switch off % 4 {
		case 1:
			for _, env := range inbox {
				if _, ok := env.Payload.(sim.Inquiry); ok {
					v.ringAsked = env.From
				}
			}
		case 3:
			for _, env := range inbox {
				if p, ok := env.Payload.(consensus.VectorPayload); ok && !v.decided {
					v.decided = true
					v.decision = p.Set.Clone()
				}
			}
		}
	}
	if round == v.segDEnd-1 {
		v.halted = true
	}
}

// Halted implements sim.Protocol.
func (v *SPVectorConsensus) Halted() bool { return v.halted }

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
	length    int
	halted    bool
}

// NewSPCheckpointing creates the single-port checkpointing machine.
func NewSPCheckpointing(id int, schedule *GossipSchedule) *SPCheckpointing {
	g := NewSPGossip(id, schedule, 1) // dummy rumor
	vlen := NewSPVectorConsensus(id, schedule.Top, bitset.New(schedule.Top.N)).ScheduleLength()
	return &SPCheckpointing{
		id:        id,
		schedule:  schedule,
		gossip:    g,
		gossipEnd: g.ScheduleLength(),
		length:    g.ScheduleLength() + vlen,
	}
}

// ScheduleLength returns the protocol's fixed round count.
func (c *SPCheckpointing) ScheduleLength() int { return c.length }

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
	if round == c.length-1 {
		c.halted = true
	}
}

// Halted implements sim.Protocol.
func (c *SPCheckpointing) Halted() bool { return c.halted }

var (
	_ sim.Protocol = (*SPCheckpointing)(nil)
	_ sim.Poller   = (*SPCheckpointing)(nil)
)
