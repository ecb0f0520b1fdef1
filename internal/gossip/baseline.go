package gossip

import (
	"lineartime/internal/sim"
)

// AllToAll is the trivial gossip comparator: every node sends its pair
// to every other node in round 0 and decides after one round. Θ(n²)
// messages, O(1) rounds — the message profile the paper's algorithm
// beats by a factor of n/(t·polylog) (§1 comparison).
//
// Correctness under crashes is immediate: a node that crashed before
// sending anything contributes no pair; a node that halts operational
// completed its multicast (a node crashed mid-multicast is faulty, so
// the gossip conditions say nothing about it).
type AllToAll struct {
	id, n  int
	extant *ExtantSet
	halted bool
}

// NewAllToAll creates the baseline machine for node id of n.
func NewAllToAll(id, n int, rumor Rumor) *AllToAll {
	e := NewExtantSet(n)
	e.Update(id, rumor)
	return &AllToAll{id: id, n: n, extant: e}
}

// AllToAllRounds is the comparator's fixed round count: send, settle.
const AllToAllRounds = 2

// Extant returns the decided extant set.
func (a *AllToAll) Extant() *ExtantSet { return a.extant }

// Send implements sim.Protocol.
func (a *AllToAll) Send(round int) []sim.Envelope {
	if round != 0 {
		return nil
	}
	return sim.ToAll(a.id, a.n, PairPayload{Node: a.id, Value: a.extant.Rumor(a.id)})
}

// Deliver implements sim.Protocol.
func (a *AllToAll) Deliver(round int, inbox []sim.Envelope) {
	for _, env := range inbox {
		if p, ok := env.Payload.(PairPayload); ok {
			a.extant.Update(p.Node, p.Value)
		}
	}
	if round >= 1 {
		a.halted = true
	}
}

// Halted implements sim.Protocol.
func (a *AllToAll) Halted() bool { return a.halted }

var _ sim.Protocol = (*AllToAll)(nil)
