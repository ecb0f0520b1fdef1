package byzantine

import (
	"lineartime/internal/auth"
	"lineartime/internal/sim"
)

// DSAll is the comparator from Dolev–Strong [24] run by all n nodes
// directly: n parallel authenticated broadcasts among everyone, t+2
// rounds, then decide the maximum extracted value. Message complexity
// Θ(n²) per round in the worst case — the profile AB-Consensus
// improves to O(t² + n) (§7, Table 1 row "authenticated Byzantine").
type DSAll struct {
	id     int
	cfg    *Config
	signer *auth.Signer
	input  uint64

	accepted map[int][]uint64
	pending  []Relay

	decided  bool
	decision uint64
	halted   bool
}

// DolevStrongRounds returns the fixed round count of a Dolev–Strong
// broadcast tolerating t faults, t + 2.
func DolevStrongRounds(t int) int { return t + 2 }

// NewDSAll creates the baseline machine for node id.
func NewDSAll(id int, cfg *Config, signer *auth.Signer, input uint64) *DSAll {
	d := &DSAll{id: id, cfg: cfg, signer: signer, input: input,
		accepted: make(map[int][]uint64, cfg.N)}
	d.accepted[id] = []uint64{input}
	return d
}

// ScheduleLength returns the fixed round count.
func (d *DSAll) ScheduleLength() int { return DolevStrongRounds(d.cfg.T) }

// Decision returns the decided value, if any.
func (d *DSAll) Decision() (uint64, bool) { return d.decision, d.decided }

// Send implements sim.Protocol.
func (d *DSAll) Send(round int) []sim.Envelope {
	var batch RelayBatch
	switch {
	case round == 0:
		batch.Items = []Relay{{
			Source: d.id,
			Value:  d.input,
			Chain:  []auth.Signature{d.signer.Sign(auth.ValueMessage(d.id, d.input))},
		}}
	case round < d.ScheduleLength() && len(d.pending) > 0:
		batch.Items = d.pending
		d.pending = nil
	default:
		return nil
	}
	return sim.ToAll(d.id, d.cfg.N, batch)
}

// Deliver implements sim.Protocol.
func (d *DSAll) Deliver(round int, inbox []sim.Envelope) {
	for _, env := range inbox {
		batch, ok := env.Payload.(RelayBatch)
		if !ok {
			continue
		}
		for _, item := range batch.Items {
			// A chain delivered in round r needs r+1 distinct signers,
			// the source first; any node may sign in the all-nodes
			// variant.
			if item.Source < 0 || item.Source >= d.cfg.N || len(item.Chain) == 0 || item.Chain[0].Signer != item.Source {
				continue
			}
			if !d.cfg.Authority.VerifyChain(auth.ValueMessage(item.Source, item.Value), item.Chain, round+1) {
				continue
			}
			vs := d.accepted[item.Source]
			if containsValue(vs, item.Value) || len(vs) >= 2 {
				continue
			}
			d.accepted[item.Source] = append(vs, item.Value)
			if round+1 < d.ScheduleLength() && !chainHasSigner(item.Chain, d.id) {
				d.pending = append(d.pending, Relay{
					Source: item.Source,
					Value:  item.Value,
					Chain: append(append([]auth.Signature(nil), item.Chain...),
						d.signer.Sign(auth.ValueMessage(item.Source, item.Value))),
				})
			}
		}
	}
	if round == d.ScheduleLength()-1 {
		best, found := uint64(0), false
		for s := 0; s < d.cfg.N; s++ {
			if vs := d.accepted[s]; len(vs) == 1 {
				if !found || vs[0] > best {
					best, found = vs[0], true
				}
			}
		}
		if found {
			d.decided, d.decision = true, best
		}
		d.halted = true
	}
}

// Halted implements sim.Protocol.
func (d *DSAll) Halted() bool { return d.halted }

var _ sim.Protocol = (*DSAll)(nil)
