package consensus

import (
	"lineartime/internal/sim"
)

// RotatingCoordinator is the classic phase-based comparator sitting
// between flooding (Θ(n²) messages) and Few-Crashes (O(n + t log t)):
// in phase k (one round each), node k is the coordinator and
// broadcasts its candidate; every node adopts the received value.
// After t+1 phases some coordinator was non-faulty for a complete
// broadcast, making all candidates equal, and later coordinators
// re-broadcast that common value, so agreement holds. Θ(t·n) messages,
// t+1 rounds.
//
// Validity: candidates start as inputs and only ever move to another
// node's candidate, so every decision is some node's input.
type RotatingCoordinator struct {
	id, n, t int

	candidate bool
	decided   bool
	decision  bool
	halted    bool
}

// NewRotatingCoordinator creates the machine for node id of n with
// crash bound t and the given input.
func NewRotatingCoordinator(id, n, t int, input bool) *RotatingCoordinator {
	return &RotatingCoordinator{id: id, n: n, t: t, candidate: input}
}

// CoordinatorRounds returns the rotating coordinator's fixed round
// count: t + 1 phases, but no more than n coordinators.
func CoordinatorRounds(n, t int) int { return min(t+1, n) }

// ScheduleLength returns the fixed round count.
func (r *RotatingCoordinator) ScheduleLength() int { return CoordinatorRounds(r.n, r.t) }

// Decision returns the decision, if reached.
func (r *RotatingCoordinator) Decision() (value, ok bool) { return r.decision, r.decided }

// Send implements sim.Protocol.
func (r *RotatingCoordinator) Send(round int) []sim.Envelope {
	if round >= r.ScheduleLength() || round%r.n != r.id {
		return nil
	}
	return sim.ToAll(r.id, r.n, sim.Bit(r.candidate))
}

// Deliver implements sim.Protocol.
func (r *RotatingCoordinator) Deliver(round int, inbox []sim.Envelope) {
	for _, env := range inbox {
		if b, ok := env.Payload.(sim.Bit); ok && env.From == round%r.n {
			r.candidate = bool(b)
		}
	}
	if round == r.ScheduleLength()-1 {
		r.decided = true
		r.decision = r.candidate
		r.halted = true
	}
}

// Halted implements sim.Protocol.
func (r *RotatingCoordinator) Halted() bool { return r.halted }

var _ sim.Protocol = (*RotatingCoordinator)(nil)
