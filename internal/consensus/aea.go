package consensus

import (
	"lineartime/internal/probe"
	"lineartime/internal/sim"
)

// AEA is the per-node state machine of algorithm
// Almost-Everywhere-Agreement (Figure 1): three parts on the little
// overlay G —
//
//	Part 1 (5t−1 rounds): little nodes flood rumor 1,
//	Part 2 (2+lg(5t) rounds): local probing; survivors decide,
//	Part 3 (1 round): little deciders notify their related nodes.
//
// The protocol guarantees (Theorem 5, t < n/5): at least 3n/5 nodes
// decide, all decisions equal, every decision is some node's input,
// O(t) rounds and O(n) one-bit messages.
//
// AEA embeds into Few-Crashes-Consensus via the `base` round offset:
// rounds before base are ignored, and the machine never halts on its
// own when standalone is false (the embedding protocol halts).
type AEA struct {
	id  int
	top *Topology

	candidate bool
	flooded   bool          // sent the rumor-1 flood already
	pending   bool          // flood at the next Send
	little    bool          // a little node: floods, probes and notifies
	probing   probe.Probing // little nodes only
	moved     bool          // the last probing Deliver changed the candidate or paused
	out       sim.Outbox

	decided    bool
	decision   bool
	standalone bool
	halted     bool

	base int // AEA's first round
}

// NewAEA creates the AEA machine for node id with the given binary
// input, starting at protocol round `base`.
func NewAEA(id int, top *Topology, input bool, base int, standalone bool) *AEA {
	a := new(AEA)
	a.init(id, top, input, base, standalone)
	return a
}

// init makes a, in place, the machine NewAEA creates.
func (a *AEA) init(id int, top *Topology, input bool, base int, standalone bool) {
	*a = AEA{
		id:         id,
		top:        top,
		candidate:  input,
		little:     top.IsLittle(id),
		standalone: standalone,
		base:       base,
	}
	if a.little {
		a.probing = *probe.New(top.Little.Neighbors(id), top.Little.P.Gamma, top.Little.P.Delta)
	}
}

// End returns the first round after AEA's schedule.
func (a *AEA) End() int { return a.base + a.top.Schedule.AEA }

// Decided returns the decision, if one was reached.
func (a *AEA) Decided() (value, ok bool) { return a.decision, a.decided }

// Send implements sim.Protocol.
func (a *AEA) Send(round int) []sim.Envelope {
	s, r := &a.top.Schedule, round-a.base
	switch {
	case r < 0:
		return nil
	case r < s.AEAFlood:
		return a.sendPart1(r)
	case r < s.AEAProbe:
		return a.sendPart2()
	case r < s.AEA:
		return a.sendPart3()
	default:
		return nil
	}
}

func (a *AEA) sendPart1(r int) []sim.Envelope {
	if !a.little {
		return nil // non-little nodes stay idle through Part 1
	}
	if (r == 0 && a.candidate && !a.flooded) || a.pending {
		a.flooded = true
		a.pending = false
		return a.out.FanOut(a.id, a.top.Little.Neighbors(a.id), sim.Bit(true))
	}
	return nil
}

func (a *AEA) sendPart2() []sim.Envelope {
	if !a.little {
		return nil
	}
	return a.out.FanOut(a.id, a.probing.SendTargets(), sim.Probe{Rumor: sim.Bit(a.candidate)})
}

func (a *AEA) sendPart3() []sim.Envelope {
	if !a.little || !a.decided {
		return nil
	}
	a.out.Reset(0)
	for j := range Related(a.id, a.top.L, a.top.N) {
		a.out.Add(a.id, j, sim.Bit(a.decision))
	}
	return a.out
}

// Deliver implements sim.Protocol.
func (a *AEA) Deliver(round int, inbox []sim.Envelope) {
	s, r := &a.top.Schedule, round-a.base
	switch {
	case r < 0:
		return
	case r < s.AEAFlood:
		a.deliverPart1(r, inbox)
	case r < s.AEAProbe:
		a.deliverPart2(r-s.AEAFlood, inbox)
	case r < s.AEA:
		a.deliverPart3(inbox)
	}
	if a.standalone && r == s.AEA-1 {
		a.halted = true
	}
}

func (a *AEA) deliverPart1(r int, inbox []sim.Envelope) {
	if !a.little || a.candidate {
		return
	}
	for _, env := range inbox {
		if b, ok := env.Payload.(sim.Bit); ok && bool(b) {
			a.candidate = true
			if !a.flooded && r+1 < a.top.Schedule.AEAFlood {
				a.pending = true
			}
			return
		}
	}
}

func (a *AEA) deliverPart2(k int, inbox []sim.Envelope) {
	if !a.little {
		return
	}
	candidate, paused := a.candidate, a.probing.Paused()
	count := 0
	for _, env := range inbox {
		p, ok := env.Payload.(sim.Probe)
		if !ok {
			continue
		}
		count++
		if bool(p.Rumor) && !a.candidate {
			// Figure 1 Part 2(b); Lemma 4 shows survivors never
			// actually take this branch when t < n/5.
			a.candidate = true
		}
	}
	a.probing.Observe(k, count)
	a.moved = a.candidate != candidate || a.probing.Paused() != paused
	if a.probing.Done() && a.probing.Survived() && !a.decided {
		a.decided = true
		a.decision = a.candidate
	}
}

func (a *AEA) deliverPart3(inbox []sim.Envelope) {
	if a.little || a.decided {
		return
	}
	for _, env := range inbox {
		if env.From == a.top.LittleOf(a.id) {
			if b, ok := env.Payload.(sim.Bit); ok {
				a.decided = true
				a.decision = bool(b)
				return
			}
		}
	}
}

// Halted implements sim.Protocol.
func (a *AEA) Halted() bool { return a.halted }

// QuietUntil implements sim.Sleeper. A non-little node only listens (for
// its little node's Part 3 notification), so it sleeps to the end of
// the schedule. A little node is awake while it has a flood to send,
// through all of probing — its instance ends, and survivors decide, in
// the last probing round — and in Part 3 if it has a decision to
// announce; once its flood is out, the rest of Part 1's 5t−1 rounds is
// silence unless a rumor arrives.
func (a *AEA) QuietUntil(round int) int {
	s := &a.top.Schedule
	end := a.End()
	if a.standalone {
		end-- // the last round's Deliver halts
	}
	round = max(round, a.base)
	switch r := round - a.base; {
	case round >= end:
		return round
	case !a.little:
		return end
	case r < s.AEAFlood:
		if a.pending || (r == 0 && a.candidate && !a.flooded) {
			return round
		}
		return a.base + s.AEAFlood
	case r < s.AEAProbe || a.decided:
		return round
	default:
		return end
	}
}

// RepeatUntil implements sim.Sleeper, for a template that is the round
// before (last = round−1) only. A non-little node sends nothing and
// ignores its inbox until Part 3, whose notification it must see, so it
// repeats up to that round. A little node repeats inside probing once a
// probing Deliver left its candidate and its pause unchanged: the same
// probes then arrive, change nothing, and go out again, until the last
// probing round, which ends the instance and must run.
func (a *AEA) RepeatUntil(round, last int) int {
	s := &a.top.Schedule
	switch r := round - a.base; {
	case last != round-1 || r <= 0 || r >= s.AEA-1:
		return round
	case !a.little:
		return a.base + s.AEA - 1
	case r > s.AEAFlood && r < s.AEAProbe && !a.moved:
		return a.base + s.AEAProbe - 1
	default:
		return round
	}
}

// Ignores implements sim.Sleeper: AEA reads every round it is delivered.
func (a *AEA) Ignores(int) bool { return false }

var _ sim.Sleeper = (*AEA)(nil)
