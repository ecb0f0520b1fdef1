package checkpoint

import (
	"lineartime/internal/bitset"
	"lineartime/internal/sim"
)

// Direct is the O(tn)-message checkpointing comparator in the style of
// De Prisco–Mayer–Yung (§1 previous work): t+2 rounds of repeated
// all-to-all-by-coordinator exchange. Round r: node r (mod n) is the
// coordinator; every node reports its alive-view to the coordinator,
// which rebroadcasts the intersection-eligible union view. After t+2
// coordinators at least one was non-faulty for a full exchange, making
// all views equal.
//
// Implementation below uses the simpler classic scheme with the same
// asymptotics: every node broadcasts its membership view every round
// for t+2 rounds (Θ(t·n²) messages in the worst case, ≥ Θ(t·n) even
// with silent nodes), then decides the intersection-stable view.
type Direct struct {
	id, n, t int

	view    *bitset.Set // nodes believed operational
	decided bool
	halted  bool
}

// NewDirect creates the baseline machine for node id of n with crash
// bound t.
func NewDirect(id, n, t int) *Direct {
	v := bitset.New(n)
	v.Add(id)
	return &Direct{id: id, n: n, t: t, view: v}
}

// DirectRounds returns the direct comparator's fixed round count, t + 2.
func DirectRounds(t int) int { return t + 2 }

// ScheduleLength returns the fixed round count.
func (d *Direct) ScheduleLength() int { return DirectRounds(d.t) }

// Decision returns the decided extant set, if any.
func (d *Direct) Decision() (*bitset.Set, bool) {
	if !d.decided {
		return nil, false
	}
	return d.view, true
}

// Send implements sim.Protocol.
func (d *Direct) Send(round int) []sim.Envelope {
	if round >= d.ScheduleLength() {
		return nil
	}
	return sim.ToAll(d.id, d.n, viewPayload{set: d.view.Clone()})
}

// Deliver implements sim.Protocol.
func (d *Direct) Deliver(round int, inbox []sim.Envelope) {
	for _, env := range inbox {
		if p, ok := env.Payload.(viewPayload); ok {
			d.view.UnionWith(p.set)
		}
	}
	if round == d.ScheduleLength()-1 {
		d.decided = true
		d.halted = true
	}
}

// Halted implements sim.Protocol.
func (d *Direct) Halted() bool { return d.halted }

type viewPayload struct{ set *bitset.Set }

func (p viewPayload) SizeBits() int { return p.set.Len() }

var (
	_ sim.Protocol = (*Direct)(nil)
	_ sim.Payload  = viewPayload{}
)
