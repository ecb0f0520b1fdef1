package byzantine

import (
	"slices"

	"lineartime/internal/auth"
	"lineartime/internal/consensus"
	"lineartime/internal/sim"
)

// ABConsensus is the honest per-node state machine of algorithm
// AB-Consensus (Figure 7):
//
//	Part 1: the little nodes run 5t parallel Dolev–Strong broadcasts
//	  (t+2 rounds, combined messages) and then co-sign the resulting
//	  authenticated common set of values (one endorsement round);
//	Part 2: little nodes send the endorsed set to their related nodes;
//	Part 3: the set propagates over the expander H, receivers verifying
//	  the endorsement signatures before adopting;
//	Part 4: nodes still without a set send signed inquiries to every
//	  little node and adopt the verified response.
//
// Every node decides on the maximum value present in its set.
type ABConsensus struct {
	id     int
	cfg    *Config
	signer *auth.Signer
	input  uint64

	// Dolev–Strong state (little nodes only).
	accepted map[int][]uint64 // source → accepted values (at most 2)
	pending  []Relay          // accepted last round; relay this round

	// Common set state.
	set     CommonSet
	haveSet bool
	setMsg  []byte // canonical encoding of the own-built set (little)

	forward   bool // Part 3: send the set at the next opportunity
	inquirers []int

	decided  bool
	decision uint64
	halted   bool
}

// NewABConsensus creates the honest machine for node id with the given
// input value. The signer must be the node's own handle.
func NewABConsensus(id int, cfg *Config, signer *auth.Signer, input uint64) *ABConsensus {
	a := &ABConsensus{id: id, cfg: cfg, signer: signer, input: input}
	if cfg.IsLittle(id) {
		a.accepted = make(map[int][]uint64, cfg.L)
		a.accepted[id] = []uint64{input}
	}
	return a
}

// Decision returns the decided value, if any.
func (a *ABConsensus) Decision() (uint64, bool) { return a.decision, a.decided }

func (a *ABConsensus) toAll(targets []int, payload sim.Payload) []sim.Envelope {
	return new(sim.Outbox).FanOut(a.id, targets, payload)
}

// Send implements sim.Protocol.
func (a *ABConsensus) Send(round int) []sim.Envelope {
	c := a.cfg
	switch {
	case round < c.dsRounds: // Part 1a: parallel Dolev–Strong
		if !c.IsLittle(a.id) {
			return nil
		}
		if round == 0 {
			item := Relay{
				Source: a.id,
				Value:  a.input,
				Chain:  []auth.Signature{a.signer.Sign(auth.ValueMessage(a.id, a.input))},
			}
			return sim.ToAll(a.id, a.cfg.L, RelayBatch{Items: []Relay{item}})
		}
		if len(a.pending) == 0 {
			return nil
		}
		batch := RelayBatch{Items: a.pending}
		a.pending = nil
		return sim.ToAll(a.id, a.cfg.L, batch)

	case round < c.endorseEnd: // Part 1b: endorsement round
		if !c.IsLittle(a.id) {
			return nil
		}
		a.buildOwnSet()
		return sim.ToAll(a.id, a.cfg.L, Endorsement{Sig: a.signer.Sign(a.setMsg)})

	case round < c.relatedEnd: // Part 2: notify related nodes
		if !c.IsLittle(a.id) || !a.haveSet {
			return nil
		}
		related := slices.Collect(consensus.Related(a.id, c.L, c.N))
		if len(related) == 0 {
			return nil
		}
		return a.toAll(related, a.set)

	case round < c.part3End: // Part 3: slow propagation over H
		if !a.haveSet || !a.forward {
			return nil
		}
		a.forward = false
		return a.toAll(c.Broadcast.Neighbors(a.id), a.set)

	case round < c.part4End: // Part 4: inquiry then response
		if round == c.part3End { // inquiry round
			a.inquirers = a.inquirers[:0]
			if a.haveSet {
				return nil
			}
			payload := SignedInquiry{Sig: a.signer.Sign(auth.InquiryMessage(a.id))}
			return sim.ToAll(a.id, a.cfg.L, payload)
		}
		if !a.haveSet || len(a.inquirers) == 0 {
			return nil
		}
		return a.toAll(a.inquirers, a.set)

	default:
		return nil
	}
}

// buildOwnSet extracts the common set from the Dolev–Strong state and
// self-endorses it (idempotent).
func (a *ABConsensus) buildOwnSet() {
	if a.setMsg != nil {
		return
	}
	c := a.cfg
	values := make([]uint64, c.L)
	present := make([]bool, c.L)
	for s := 0; s < c.L; s++ {
		if vs := a.accepted[s]; len(vs) == 1 {
			values[s] = vs[0]
			present[s] = true
		}
	}
	a.setMsg = auth.SetMessage(values, present)
	a.set = CommonSet{
		Values:       values,
		Present:      present,
		Endorsements: []auth.Signature{a.signer.Sign(a.setMsg)},
	}
}

// Deliver implements sim.Protocol.
func (a *ABConsensus) Deliver(round int, inbox []sim.Envelope) {
	c := a.cfg
	switch {
	case round < c.dsRounds:
		if c.IsLittle(a.id) {
			a.deliverDS(round, inbox)
		}
	case round < c.endorseEnd:
		if c.IsLittle(a.id) {
			a.deliverEndorsements(inbox)
		}
	case round < c.relatedEnd:
		a.tryAdopt(inbox, round)
	case round < c.part3End:
		a.tryAdopt(inbox, round)
	case round == c.part3End: // inquiry round
		if a.haveSet {
			for _, env := range inbox {
				inq, ok := env.Payload.(SignedInquiry)
				if !ok || inq.Sig.Signer != env.From {
					continue
				}
				if c.Authority.Verify(auth.InquiryMessage(env.From), inq.Sig) {
					a.inquirers = append(a.inquirers, env.From)
				}
			}
		}
	default: // response round
		a.tryAdopt(inbox, round)
	}
	if round == c.part4End-1 {
		a.decide()
		a.halted = true
	}
}

// deliverDS validates and accepts relayed values per the Dolev–Strong
// rule: at round r a chain of at least r+1 distinct little signatures
// beginning with the source authenticates the value; each node accepts
// at most two values per source (two suffice to expose a faulty
// source).
func (a *ABConsensus) deliverDS(round int, inbox []sim.Envelope) {
	c := a.cfg
	for _, env := range inbox {
		batch, ok := env.Payload.(RelayBatch)
		if !ok {
			continue
		}
		for _, item := range batch.Items {
			if item.Source < 0 || item.Source >= c.L || len(item.Chain) < round+1 {
				continue
			}
			if item.Chain[0].Signer != item.Source {
				continue
			}
			if !c.littleChain(auth.ValueMessage(item.Source, item.Value), item.Chain, -1) {
				continue
			}
			vs := a.accepted[item.Source]
			if containsValue(vs, item.Value) || len(vs) >= 2 {
				continue
			}
			a.accepted[item.Source] = append(vs, item.Value)
			if round+1 < c.dsRounds && !chainHasSigner(item.Chain, a.id) {
				relay := Relay{
					Source: item.Source,
					Value:  item.Value,
					Chain: append(append([]auth.Signature(nil), item.Chain...),
						a.signer.Sign(auth.ValueMessage(item.Source, item.Value))),
				}
				a.pending = append(a.pending, relay)
			}
		}
	}
}

func containsValue(vs []uint64, v uint64) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}

func chainHasSigner(chain []auth.Signature, id int) bool {
	for _, sig := range chain {
		if sig.Signer == id {
			return true
		}
	}
	return false
}

// deliverEndorsements collects valid signatures over the node's own
// set encoding; honest little nodes computed identical sets (Dolev–
// Strong agreement), so their endorsements accumulate to ≥ L − t.
func (a *ABConsensus) deliverEndorsements(inbox []sim.Envelope) {
	c := a.cfg
	seen := make(map[int]bool, len(a.set.Endorsements))
	for _, sig := range a.set.Endorsements {
		seen[sig.Signer] = true
	}
	for _, env := range inbox {
		e, ok := env.Payload.(Endorsement)
		if !ok || e.Sig.Signer != env.From || e.Sig.Signer >= c.L || seen[e.Sig.Signer] {
			continue
		}
		if c.Authority.Verify(a.setMsg, e.Sig) {
			seen[e.Sig.Signer] = true
			a.set.Endorsements = append(a.set.Endorsements, e.Sig)
		}
	}
	if len(a.set.Endorsements) >= c.Endorsements {
		a.haveSet = true
		a.forward = true // broadcast at the start of Part 3
	}
}

// tryAdopt adopts the first valid authenticated common set received.
func (a *ABConsensus) tryAdopt(inbox []sim.Envelope, round int) {
	if a.haveSet {
		return
	}
	for _, env := range inbox {
		set, ok := env.Payload.(CommonSet)
		if !ok || !a.cfg.validCommonSet(set) {
			continue
		}
		a.set = set.Clone()
		a.haveSet = true
		if round+1 < a.cfg.part3End {
			a.forward = true
		}
		return
	}
}

// decide picks the maximum present value (§7: "decide on the maximum
// value in the possessed authenticated common set").
func (a *ABConsensus) decide() {
	if !a.haveSet {
		return
	}
	best := uint64(0)
	found := false
	for i, p := range a.set.Present {
		if p && (!found || a.set.Values[i] > best) {
			best = a.set.Values[i]
			found = true
		}
	}
	if found {
		a.decided = true
		a.decision = best
	}
}

// Halted implements sim.Protocol.
func (a *ABConsensus) Halted() bool { return a.halted }

var _ sim.Protocol = (*ABConsensus)(nil)
