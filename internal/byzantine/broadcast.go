package byzantine

import (
	"lineartime/internal/auth"
	"lineartime/internal/sim"
)

// DSBroadcast is the Dolev–Strong authenticated broadcast [24] as a
// standalone primitive: one designated source, all n nodes participate,
// t+2 rounds. Honest guarantees: (a) if the source is honest, every
// honest node outputs the source's value; (b) honest nodes output the
// same thing even under a Byzantine source — either one value or the
// null marker when the source provably equivocated.
//
// AB-Consensus embeds 5t of these among the little nodes; the
// standalone form is the unit under test for the signature-chain logic
// and a usable primitive in its own right (e.g. configuration
// distribution with one trusted-but-verify publisher).
type DSBroadcast struct {
	id     int
	n, t   int
	source int
	auth   *auth.Authority
	signer *auth.Signer

	value    uint64 // source's input
	accepted []uint64
	pending  []Relay

	output   uint64
	hasValue bool // exactly one accepted value
	done     bool
	halted   bool
}

// NewDSBroadcast creates the machine for node id among n nodes with
// fault bound t; source is the broadcasting node and value its input
// (ignored at non-sources).
func NewDSBroadcast(id, n, t, source int, authority *auth.Authority, signer *auth.Signer, value uint64) *DSBroadcast {
	d := &DSBroadcast{
		id: id, n: n, t: t, source: source,
		auth: authority, signer: signer, value: value,
	}
	if id == source {
		d.accepted = []uint64{value}
	}
	return d
}

// DolevStrongRounds returns the fixed round count of a Dolev–Strong
// broadcast tolerating t faults, t + 2.
func DolevStrongRounds(t int) int { return t + 2 }

// ScheduleLength returns the fixed round count.
func (d *DSBroadcast) ScheduleLength() int { return DolevStrongRounds(d.t) }

// Output returns the broadcast result: (value, true, done) when one
// value was accepted, (0, false, done) for the null outcome.
func (d *DSBroadcast) Output() (value uint64, ok, done bool) {
	return d.output, d.hasValue, d.done
}

func (d *DSBroadcast) everyone() []int {
	out := make([]int, 0, d.n-1)
	for i := 0; i < d.n; i++ {
		if i != d.id {
			out = append(out, i)
		}
	}
	return out
}

// Send implements sim.Protocol.
func (d *DSBroadcast) Send(round int) []sim.Envelope {
	var batch RelayBatch
	switch {
	case round == 0 && d.id == d.source:
		batch.Items = []Relay{{
			Source: d.source,
			Value:  d.value,
			Chain:  []auth.Signature{d.signer.Sign(auth.ValueMessage(d.source, d.value))},
		}}
	case round > 0 && round < d.ScheduleLength() && len(d.pending) > 0:
		batch.Items = d.pending
		d.pending = nil
	default:
		return nil
	}
	targets := d.everyone()
	out := make([]sim.Envelope, 0, len(targets))
	for _, to := range targets {
		out = append(out, sim.Envelope{From: d.id, To: to, Payload: batch})
	}
	return out
}

// Deliver implements sim.Protocol.
func (d *DSBroadcast) Deliver(round int, inbox []sim.Envelope) {
	for _, env := range inbox {
		batch, ok := env.Payload.(RelayBatch)
		if !ok {
			continue
		}
		for _, item := range batch.Items {
			if item.Source != d.source || len(item.Chain) < round+1 {
				continue
			}
			if len(item.Chain) == 0 || item.Chain[0].Signer != d.source {
				continue
			}
			if !d.validChain(item) {
				continue
			}
			if containsValue(d.accepted, item.Value) || len(d.accepted) >= 2 {
				continue
			}
			d.accepted = append(d.accepted, item.Value)
			if round+1 < d.ScheduleLength() && !chainHasSigner(item.Chain, d.id) {
				d.pending = append(d.pending, Relay{
					Source: d.source,
					Value:  item.Value,
					Chain: append(append([]auth.Signature(nil), item.Chain...),
						d.signer.Sign(auth.ValueMessage(d.source, item.Value))),
				})
			}
		}
	}
	if round == d.ScheduleLength()-1 {
		if len(d.accepted) == 1 {
			d.output = d.accepted[0]
			d.hasValue = true
		}
		d.done = true
		d.halted = true
	}
}

func (d *DSBroadcast) validChain(item Relay) bool {
	msg := auth.ValueMessage(item.Source, item.Value)
	seen := make(map[int]bool, len(item.Chain))
	for _, sig := range item.Chain {
		if sig.Signer < 0 || sig.Signer >= d.n || seen[sig.Signer] {
			return false
		}
		seen[sig.Signer] = true
		if !d.auth.Verify(msg, sig) {
			return false
		}
	}
	return true
}

// Halted implements sim.Protocol.
func (d *DSBroadcast) Halted() bool { return d.halted }

var _ sim.Protocol = (*DSBroadcast)(nil)
