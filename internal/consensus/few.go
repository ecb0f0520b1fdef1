package consensus

import (
	"lineartime/internal/sim"
)

// FewCrashes is algorithm Few-Crashes-Consensus (Figure 3): execute
// Almost-Everywhere-Agreement, adopt its decision as a common value,
// then execute Spread-Common-Value and decide on the spread value.
// Theorem 7: for t < n/5 it solves consensus in O(t + log n) rounds
// with O(n + t log t) one-bit messages.
type FewCrashes struct {
	id  int
	top *Topology

	aea *AEA
	scv *SCV

	handoff bool // AEA decision transferred into SCV
	halted  bool
}

// NewFewCrashes creates the machine for node id with the given input.
func NewFewCrashes(id int, top *Topology, input bool) *FewCrashes {
	aea := NewAEA(id, top, input, 0, false)
	scv := NewSCV(id, top, false, false, aea.End(), false)
	return &FewCrashes{id: id, top: top, aea: aea, scv: scv}
}

// ScheduleLength returns the total number of rounds of the protocol.
func (f *FewCrashes) ScheduleLength() int { return f.top.Schedule.Few }

// Decision returns the consensus decision, if reached.
func (f *FewCrashes) Decision() (value, ok bool) {
	if v, ok := f.scv.Decided(); ok {
		return v, true
	}
	return f.aea.Decided()
}

// Send implements sim.Protocol.
func (f *FewCrashes) Send(round int) []sim.Envelope {
	f.maybeHandoff(round)
	if round < f.aea.End() {
		return f.aea.Send(round)
	}
	return f.scv.Send(round)
}

// Deliver implements sim.Protocol.
func (f *FewCrashes) Deliver(round int, inbox []sim.Envelope) {
	if round < f.aea.End() {
		f.aea.Deliver(round, inbox)
	} else {
		f.scv.Deliver(round, inbox)
	}
	if round == f.top.Schedule.Few-1 {
		f.halted = true
	}
}

// maybeHandoff moves the AEA decision into SCV at the boundary round.
func (f *FewCrashes) maybeHandoff(round int) {
	if f.handoff || round < f.aea.End() {
		return
	}
	f.handoff = true
	if v, ok := f.aea.Decided(); ok {
		f.scv.decided = true
		f.scv.value = v
		f.scv.adopted = true
	}
}

// Halted implements sim.Protocol.
func (f *FewCrashes) Halted() bool { return f.halted }

// QuietUntil implements sim.Sleeper: the running sub-protocol's answer,
// clamped to the hand-off round (whose Send moves the AEA decision into
// SCV) and to the last round, whose Deliver halts.
func (f *FewCrashes) QuietUntil(round int) int {
	if h := f.aea.End(); round < h {
		return min(f.aea.QuietUntil(round), h)
	}
	if !f.handoff {
		return round
	}
	return min(f.scv.QuietUntil(round), f.top.Schedule.Few-1)
}

// RepeatUntil implements sim.Sleeper: AEA's answer, clamped to the
// hand-off round; SCV promises no repeats.
func (f *FewCrashes) RepeatUntil(round, last int) int {
	if h := f.aea.End(); round < h {
		return min(f.aea.RepeatUntil(round, last), h)
	}
	return round
}

// PartAt labels a round with its Few-Crashes-Consensus part.
func (f *FewCrashes) PartAt(round int) string { return f.top.Schedule.FewPart(round) }

// outboxCaps returns the envelopes node id's AEA and SCV machines send
// in their widest regular round: a little node floods and probes its
// little neighbors and notifies its related nodes (other nodes send
// nothing in AEA); SCV Part 1 forwards to the broadcast neighbors.
// SCV Part 2's inquiries and replies may exceed that, and then grow
// the buffer like any sim.Outbox.
func (tp *Topology) outboxCaps(id int) (aea, scv int) {
	if tp.IsLittle(id) {
		related := (tp.N - id - 1) / tp.L
		aea = max(tp.Little.G.Degree(id), related)
	}
	return aea, tp.MustBroadcast().G.Degree(id)
}

// OutboxSlabLen returns the length of the envelope slab from which
// CarveOutboxes can cut every machine of a Few-Crashes-Consensus
// system its send buffers.
func (tp *Topology) OutboxSlabLen() int {
	total := 0
	for id := 0; id < tp.N; id++ {
		aea, scv := tp.outboxCaps(id)
		total += aea + scv
	}
	return total
}

// CarveOutboxes makes the front of slab the machine's two send buffers
// and returns the rest, so a whole system sends out of one allocation
// (of OutboxSlabLen envelopes) its owner can recycle once the run's
// outcome is read. Without it the buffers are allocated on first use.
func (f *FewCrashes) CarveOutboxes(slab []sim.Envelope) []sim.Envelope {
	aea, scv := f.top.outboxCaps(f.id)
	f.aea.out = slab[:0:aea]
	f.scv.out = slab[aea : aea : aea+scv]
	return slab[aea+scv:]
}

var _ sim.Sleeper = (*FewCrashes)(nil)
