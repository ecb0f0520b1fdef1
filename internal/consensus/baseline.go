package consensus

import (
	"lineartime/internal/sim"
)

// Flooding is the textbook full-information comparator for binary
// consensus with crashes: every node broadcasts its candidate value to
// all other nodes when the value first becomes 1 (or initially), for
// t + 2 rounds, then decides its candidate. Correctness is the classic
// chain argument: value 1 either dies with a chain of ≤ t interrupted
// multicasts or some holder completes a multicast, and one extra round
// lets the final flip settle.
//
// It matches the Ω(n) message lower bound's trivial upper neighborhood:
// Θ(n²) messages and t + O(1) rounds, the profile the paper's Table 1
// comparisons improve on (O(n + t log t) bits via Few-Crashes).
type Flooding struct {
	id, n, t int

	candidate bool
	pending   bool
	flooded   bool
	decided   bool
	decision  bool
	halted    bool
}

// NewFlooding creates the baseline machine for node id of n with crash
// bound t and the given input bit.
func NewFlooding(id, n, t int, input bool) *Flooding {
	return &Flooding{id: id, n: n, t: t, candidate: input, pending: input}
}

// FloodingRounds returns the flooding comparator's fixed round count,
// t + 2.
func FloodingRounds(t int) int { return t + 2 }

// ScheduleLength returns the protocol's fixed round count.
func (f *Flooding) ScheduleLength() int { return FloodingRounds(f.t) }

// Decision returns the decision, if reached.
func (f *Flooding) Decision() (value, ok bool) { return f.decision, f.decided }

// Send implements sim.Protocol.
func (f *Flooding) Send(round int) []sim.Envelope {
	if round >= f.ScheduleLength() || !f.pending || f.flooded {
		return nil
	}
	f.pending = false
	f.flooded = true
	return sim.ToAll(f.id, f.n, sim.Bit(true))
}

// Deliver implements sim.Protocol.
func (f *Flooding) Deliver(round int, inbox []sim.Envelope) {
	if !f.candidate {
		for _, env := range inbox {
			if b, ok := env.Payload.(sim.Bit); ok && bool(b) {
				f.candidate = true
				f.pending = true
				break
			}
		}
	}
	if round == f.ScheduleLength()-1 {
		f.decided = true
		f.decision = f.candidate
		f.halted = true
	}
}

// Halted implements sim.Protocol.
func (f *Flooding) Halted() bool { return f.halted }

var _ sim.Protocol = (*Flooding)(nil)
