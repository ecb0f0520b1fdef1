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
	"lineartime/internal/expander"
	"lineartime/internal/probe"
	"lineartime/internal/sim"
)

// LinearConsensus is the per-node single-port machine.
type LinearConsensus struct {
	id  int
	top *consensus.Topology

	candidate bool
	flooded   bool // completed the Part-1 flood
	pending   bool // flood at the next Part-1 multi-port round
	floodNow  bool // latched: flooding during the current mp-round

	probing   *probe.Probing
	probeNow  bool
	probeRecv int

	decided  bool
	decision bool
	hSent    bool // H-broadcast performed
	hNow     bool

	ringInquired bool // inquiry outstanding this sub-phase
	ringAsked    int  // inquirer id to answer this sub-phase, -1 none

	halted bool

	// Schedule (in single-port rounds).
	d, gamma, delta                    int // little degree, probing rounds, H degree
	mp1                                int // AEA Part 1 multi-port rounds
	hRounds                            int // H spreading multi-port rounds
	ringPhases                         int
	segAEnd, segBEnd, segCEnd, segDEnd int
}

// New creates the Linear-Consensus machine for node id with the given
// binary input.
func New(id int, top *consensus.Topology, input bool) *LinearConsensus {
	l := &LinearConsensus{id: id, top: top, candidate: input, ringAsked: -1}
	l.d = top.Little.P.Degree
	l.gamma = top.Little.P.Gamma
	l.delta = top.MustBroadcast().P.Degree

	l.mp1 = 5*top.T - 1
	if l.mp1 < 1 {
		l.mp1 = 1
	}
	if l.mp1 < l.gamma {
		l.mp1 = l.gamma
	}
	l.hRounds = 2*expander.CeilLog2(top.N) + 4
	l.ringPhases = 6*top.T + expander.CeilLog2(top.N) + 16
	if l.ringPhases > top.N-1 {
		l.ringPhases = top.N - 1
	}

	l.segAEnd = l.mp1 * 2 * l.d
	l.segBEnd = l.segAEnd + l.gamma*2*l.d
	l.segCEnd = l.segBEnd + l.hRounds*2*l.delta
	l.segDEnd = l.segCEnd + 4*l.ringPhases

	if top.IsLittle(id) {
		l.probing = probe.New(top.Little.Neighbors(id), l.gamma, top.Little.P.Delta)
	}
	return l
}

// ScheduleLength returns the protocol's fixed single-port round count.
func (l *LinearConsensus) ScheduleLength() int { return l.segDEnd }

// Decision returns the consensus decision, if reached.
func (l *LinearConsensus) Decision() (value, ok bool) { return l.decision, l.decided }

// littleNeighbor returns the little overlay neighbor for a slot, or -1.
func (l *LinearConsensus) littleNeighbor(slot int) int {
	if l.probing == nil {
		return -1
	}
	nbrs := l.top.Little.Neighbors(l.id)
	if slot < 0 || slot >= len(nbrs) {
		return -1
	}
	return nbrs[slot]
}

func (l *LinearConsensus) hNeighbor(slot int) int {
	nbrs := l.top.MustBroadcast().Neighbors(l.id)
	if slot < 0 || slot >= len(nbrs) {
		return -1
	}
	return nbrs[slot]
}

// position returns the segment (1..4) and the offset within it.
func (l *LinearConsensus) position(round int) (seg, off int) {
	switch {
	case round < l.segAEnd:
		return 1, round
	case round < l.segBEnd:
		return 2, round - l.segAEnd
	case round < l.segCEnd:
		return 3, round - l.segBEnd
	case round < l.segDEnd:
		return 4, round - l.segCEnd
	default:
		return 5, 0
	}
}

// ringPeers returns (predecessor, successor-at-offset-k) for sub-phase
// k (1-based): the node this one inquires, and the node whose
// inquiries this one answers.
func (l *LinearConsensus) ringPeers(k int) (pred, succ int) {
	n := l.top.N
	return (l.id - k + n*((k/n)+1)) % n, (l.id + k) % n
}

// Send implements sim.Protocol (single message per round).
func (l *LinearConsensus) Send(round int) []sim.Envelope {
	seg, off := l.position(round)
	switch seg {
	case 1: // AEA Part 1 compiled
		if l.probing == nil {
			return nil
		}
		slot := off % (2 * l.d)
		if slot == 0 {
			first := off == 0
			if (first && l.candidate && !l.flooded) || l.pending {
				l.flooded = true
				l.pending = false
				l.floodNow = true
			} else {
				l.floodNow = false
			}
		}
		if l.floodNow && slot < l.d {
			if to := l.littleNeighbor(slot); to >= 0 {
				return []sim.Envelope{{From: l.id, To: to, Payload: sim.Bit(true)}}
			}
		}
		return nil
	case 2: // probing compiled
		if l.probing == nil {
			return nil
		}
		slot := off % (2 * l.d)
		if slot == 0 {
			l.probeNow = l.probing.Active()
			l.probeRecv = 0
		}
		if l.probeNow && slot < l.d {
			if to := l.littleNeighbor(slot); to >= 0 {
				return []sim.Envelope{{From: l.id, To: to, Payload: sim.Probe{Rumor: sim.Bit(l.candidate)}}}
			}
		}
		return nil
	case 3: // H spreading compiled
		slot := off % (2 * l.delta)
		if slot == 0 {
			l.hNow = l.decided && !l.hSent
			if l.hNow {
				l.hSent = true
			}
		}
		if l.hNow && slot < l.delta {
			if to := l.hNeighbor(slot); to >= 0 {
				return []sim.Envelope{{From: l.id, To: to, Payload: sim.Bit(l.decision)}}
			}
		}
		return nil
	case 4: // ring-pull sweep
		k := off/4 + 1
		pred, _ := l.ringPeers(k)
		switch off % 4 {
		case 0: // undecided inquire predecessor-at-k
			l.ringAsked = -1
			if !l.decided && pred != l.id {
				l.ringInquired = true
				return []sim.Envelope{{From: l.id, To: pred, Payload: sim.Inquiry{}}}
			}
			l.ringInquired = false
			return nil
		case 2: // respond to this sub-phase's inquirer
			if l.decided && l.ringAsked >= 0 {
				to := l.ringAsked
				l.ringAsked = -1
				return []sim.Envelope{{From: l.id, To: to, Payload: sim.Bit(l.decision)}}
			}
			return nil
		default:
			return nil
		}
	default:
		return nil
	}
}

// Poll implements sim.Poller.
func (l *LinearConsensus) Poll(round int) (sim.NodeID, bool) {
	seg, off := l.position(round)
	switch seg {
	case 1, 2:
		if l.probing == nil {
			return 0, false
		}
		slot := off % (2 * l.d)
		if slot >= l.d {
			if from := l.littleNeighbor(slot - l.d); from >= 0 {
				return from, true
			}
		}
		return 0, false
	case 3:
		slot := off % (2 * l.delta)
		if slot >= l.delta {
			if from := l.hNeighbor(slot - l.delta); from >= 0 {
				return from, true
			}
		}
		return 0, false
	case 4:
		k := off/4 + 1
		pred, succ := l.ringPeers(k)
		switch off % 4 {
		case 1: // listen for inquiries from the node k ahead
			if succ != l.id {
				return succ, true
			}
		case 3: // collect the response
			if l.ringInquired && pred != l.id {
				return pred, true
			}
		}
		return 0, false
	default:
		return 0, false
	}
}

// Deliver implements sim.Protocol.
func (l *LinearConsensus) Deliver(round int, inbox []sim.Envelope) {
	seg, off := l.position(round)
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
		if l.probing != nil && off%(2*l.d) == 2*l.d-1 {
			l.probing.Observe(l.probeRecv)
			if l.probing.Done() && l.probing.Survived() && !l.decided {
				l.decided = true
				l.decision = l.candidate
			}
		}
	case 3:
		for _, env := range inbox {
			if b, ok := env.Payload.(sim.Bit); ok && !l.decided {
				l.decided = true
				l.decision = bool(b)
			}
		}
	case 4:
		switch off % 4 {
		case 1:
			for _, env := range inbox {
				if _, ok := env.Payload.(sim.Inquiry); ok {
					l.ringAsked = env.From
				}
			}
		case 3:
			for _, env := range inbox {
				if b, ok := env.Payload.(sim.Bit); ok && !l.decided {
					l.decided = true
					l.decision = bool(b)
				}
			}
		}
	}
	if round == l.segDEnd-1 {
		l.halted = true
	}
}

// Halted implements sim.Protocol.
func (l *LinearConsensus) Halted() bool { return l.halted }

var (
	_ sim.Protocol = (*LinearConsensus)(nil)
	_ sim.Poller   = (*LinearConsensus)(nil)
)

// PartAt maps a single-port round to its compiled segment, for the
// engine's per-part message attribution.
func (l *LinearConsensus) PartAt(round int) string {
	switch seg, _ := l.position(round); seg {
	case 1:
		return "flood(2d)"
	case 2:
		return "probing(2d)"
	case 3:
		return "spread(2Δ)"
	case 4:
		return "ring-pull"
	default:
		return ""
	}
}
