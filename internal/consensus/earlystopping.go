package consensus

import (
	"lineartime/internal/bitset"
	"lineartime/internal/sim"
)

// EarlyStopping is the classic early-stopping consensus of the related
// work (Dolev–Reischuk–Strong style, §1 "related work"): every node
// broadcasts its candidate every round and watches the set of senders
// it hears from. A round in which no new failure is observed is
// "clean"; after a clean round all alive nodes hold equal candidates,
// so the observer decides and floods a decision message, which
// recipients adopt, relay once, and halt on. Termination takes
// min(f+3, t+3) rounds for f actual crashes — the early-stopping
// profile the paper contrasts with its fixed-schedule algorithms —
// at Θ(n²) messages per round.
type EarlyStopping struct {
	id, n, t int

	candidate bool
	heard     *bitset.Set // senders heard from in the previous round
	haveHeard bool

	decided   bool
	decision  bool
	relayed   bool // decision message sent
	halted    bool
	decidedAt int
}

// NewEarlyStopping creates the machine for node id of n with crash
// bound t and the given input.
func NewEarlyStopping(id, n, t int, input bool) *EarlyStopping {
	return &EarlyStopping{id: id, n: n, t: t, candidate: input, decidedAt: -1}
}

// EarlyStoppingRounds returns the early-stopping comparator's
// worst-case round bound, t + 3.
func EarlyStoppingRounds(t int) int { return t + 3 }

// Decision returns the decision, if reached.
func (e *EarlyStopping) Decision() (value, ok bool) { return e.decision, e.decided }

// decisionPayload marks a decide-and-halt message; the bit carries the
// decided value and the role is distinguished by a wrapper type so a
// candidate broadcast cannot be mistaken for a decision.
type decisionPayload struct {
	Value sim.Bit
}

// SizeBits implements sim.Payload.
func (decisionPayload) SizeBits() int { return 1 }

var _ sim.Payload = decisionPayload{}

// Send implements sim.Protocol.
func (e *EarlyStopping) Send(round int) []sim.Envelope {
	if e.halted {
		return nil
	}
	var payload sim.Payload
	switch {
	case e.decided && !e.relayed:
		e.relayed = true
		payload = decisionPayload{Value: sim.Bit(e.decision)}
	case e.decided:
		return nil
	default:
		payload = sim.Bit(e.candidate)
	}
	return sim.ToAll(e.id, e.n, payload)
}

// Deliver implements sim.Protocol.
func (e *EarlyStopping) Deliver(round int, inbox []sim.Envelope) {
	if e.decided {
		// One relay round after deciding, then halt.
		if e.relayed {
			e.halted = true
		}
		return
	}
	heardNow := bitset.New(e.n)
	heardNow.Add(e.id)
	for _, env := range inbox {
		switch p := env.Payload.(type) {
		case decisionPayload:
			e.decide(round, bool(p.Value))
			return
		case sim.Bit:
			heardNow.Add(env.From)
			if bool(p) {
				e.candidate = true
			}
		}
	}
	clean := e.haveHeard && heardNow.Equal(e.heard)
	e.heard = heardNow
	e.haveHeard = true
	if clean || round >= e.t+1 {
		e.decide(round, e.candidate)
	}
}

func (e *EarlyStopping) decide(round int, value bool) {
	e.decided = true
	e.decision = value
	e.decidedAt = round
}

// Halted implements sim.Protocol.
func (e *EarlyStopping) Halted() bool { return e.halted }

var _ sim.Protocol = (*EarlyStopping)(nil)
