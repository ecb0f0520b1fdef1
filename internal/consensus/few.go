package consensus

import (
	"lineartime/internal/graph"
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

	aea AEA
	scv SCV

	handoff bool // AEA decision transferred into SCV
	halted  bool
}

// Init makes f, in place, the machine for node id with the given input:
// a system of machines held in one array (a run arena) is then one
// allocation, not three or four per node.
func (f *FewCrashes) Init(id int, top *Topology, input bool) {
	*f = FewCrashes{id: id, top: top}
	f.aea.init(id, top, input, 0, false)
	f.scv.init(id, top, false, false, f.aea.End(), false)
}

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

// Ignores implements sim.Sleeper: SCV's answer once SCV runs (the
// halting Deliver of the last round reads nothing either); AEA's rounds
// are read.
func (f *FewCrashes) Ignores(round int) bool {
	return round >= f.aea.End() && f.scv.Ignores(round)
}

// outboxPlan holds what the few-crashes machines' send-buffer caps
// read, computed once per topology. Node id's AEA machine sends at
// most aea and its SCV machine at most scv envelopes in their widest
// regular round (caps): a little node floods and probes its little
// neighbors and notifies its related nodes (other nodes send nothing
// in AEA); SCV Part 1 forwards to the broadcast neighbors. SCV Part 2's
// inquiries and replies may exceed that, and then grow the buffer like
// any sim.Outbox.
type outboxPlan struct {
	little, h *graph.Graph
	// Little node i has q related nodes if i ≤ r, else q−1: the
	// (n−i−1)/l of §4.1 Part 3 without a division per node, where
	// n−1 = q·l + r.
	l, q, r int
	total   int // the caps summed over all nodes
}

// outboxes returns the topology's outbox plan, computed by the first
// call (the one that sizes the run's slab) and safe from many runs at
// once.
func (tp *Topology) outboxes() *outboxPlan {
	tp.capsOnce.Do(func() {
		p := &tp.caps
		*p = outboxPlan{little: tp.Little.G, h: tp.MustBroadcast().G, l: tp.L, q: (tp.N - 1) / tp.L, r: (tp.N - 1) % tp.L}
		for id := 0; id < tp.N; id++ {
			aea, scv := p.caps(id)
			p.total += aea + scv
		}
	})
	return &tp.caps
}

// caps returns node id's AEA and SCV send-buffer caps.
func (p *outboxPlan) caps(id int) (aea, scv int) {
	if id < p.l {
		related := p.q
		if id > p.r {
			related--
		}
		aea = max(p.little.Degree(id), related)
	}
	return aea, p.h.Degree(id)
}

// OutboxSlabLen returns the length of the envelope slab from which
// CarveOutboxes can cut every machine of a Few-Crashes-Consensus
// system its send buffers.
func (tp *Topology) OutboxSlabLen() int { return tp.outboxes().total }

// CarveOutboxes makes the front of slab the machine's two send buffers
// and returns the rest, so a whole system sends out of one allocation
// (of OutboxSlabLen envelopes) its owner can recycle once the run's
// outcome is read. Without it the buffers are allocated on first use.
func (f *FewCrashes) CarveOutboxes(slab []sim.Envelope) []sim.Envelope {
	aea, scv := f.top.outboxes().caps(f.id)
	f.aea.out = slab[:0:aea]
	f.scv.out = slab[aea : aea : aea+scv]
	return slab[aea+scv:]
}

var _ sim.Sleeper = (*FewCrashes)(nil)
