package consensus

import (
	"lineartime/internal/bitset"
	"lineartime/internal/probe"
	"lineartime/internal/sim"
)

// VectorPayload carries a whole vector of per-instance binary values,
// the paper's "messages combined into one big message" for the n
// concurrent consensus instances of checkpointing (§6). Wire size: one
// bit per instance.
type VectorPayload struct {
	Set *bitset.Set
}

// SizeBits implements sim.Payload.
func (p VectorPayload) SizeBits() int { return p.Set.Len() }

// VectorProbe is the local-probing message carrying the sender's
// candidate vector.
type VectorProbe struct {
	Set *bitset.Set
}

// SizeBits implements sim.Payload.
func (p VectorProbe) SizeBits() int { return p.Set.Len() }

var (
	_ sim.Payload = VectorPayload{}
	_ sim.Payload = VectorProbe{}
)

// VectorFewCrashes runs n concurrent instances of Few-Crashes-Consensus
// with combined messages (§6 Part 2): instance i decides the bit "is i
// in the final extant set". Structurally it is AEA + SCV with bit
// vectors in place of bits; flooding ORs vectors, probing survivors
// decide their vector, and SCV spreads the decided vector.
//
// Agreement per instance follows from the binary argument applied
// coordinatewise; all deciders hold the same vector, so adopting a
// responder's whole vector preserves agreement.
type VectorFewCrashes struct {
	id  int
	top *Topology

	candidate *bitset.Set
	pending   bool // candidate grew; flood next Send
	probing   *probe.Probing

	decided  bool
	decision *bitset.Set

	inquirers []int
	out       sim.Outbox
	halted    bool
}

// NewVectorFewCrashes creates the machine for node id with the given
// initial membership vector (ownership is taken; pass a clone if the
// caller keeps using it).
func NewVectorFewCrashes(id int, top *Topology, initial *bitset.Set) *VectorFewCrashes {
	v := &VectorFewCrashes{
		id:        id,
		top:       top,
		candidate: initial,
		pending:   true,
	}
	if top.IsLittle(id) {
		v.probing = probe.New(top.Little.Neighbors(id), top.Little.P.Gamma, top.Little.P.Delta)
	}
	return v
}

// Decision returns the decided membership vector, if any. The returned
// set is shared; callers must not modify it.
func (v *VectorFewCrashes) Decision() (*bitset.Set, bool) { return v.decision, v.decided }

func (v *VectorFewCrashes) snapshot() *bitset.Set { return v.candidate.Clone() }

// Send implements sim.Protocol.
func (v *VectorFewCrashes) Send(round int) []sim.Envelope {
	s := &v.top.Schedule
	switch {
	case round < s.AEAFlood: // AEA Part 1: vector flooding on G (little only)
		if !v.top.IsLittle(v.id) || !v.pending {
			return nil
		}
		v.pending = false
		return v.out.FanOut(v.id, v.top.Little.Neighbors(v.id), VectorPayload{Set: v.snapshot()})
	case round < s.AEAProbe: // AEA Part 2: probing with vectors
		if v.probing == nil {
			return nil
		}
		targets := v.probing.SendTargets()
		if len(targets) == 0 {
			return nil
		}
		return v.out.FanOut(v.id, targets, VectorProbe{Set: v.snapshot()})
	case round < s.AEA: // AEA Part 3: notify related nodes
		if !v.top.IsLittle(v.id) || !v.decided {
			return nil
		}
		v.out.Reset(0)
		for to := range Related(v.id, v.top.L, v.top.N) {
			v.out.Add(v.id, to, VectorPayload{Set: v.decision})
		}
		return v.out
	case round < s.FewBroadcast: // SCV Part 1: broadcast over H
		if !v.pending || !v.decided {
			return nil
		}
		v.pending = false
		return v.out.FanOut(v.id, v.top.MustBroadcast().Neighbors(v.id), VectorPayload{Set: v.decision})
	case round < s.Few: // SCV Part 2: inquiry phases + fallback
		off := round - s.FewBroadcast
		phase := off / 2
		if off%2 == 0 {
			v.inquirers = v.inquirers[:0]
			if v.decided {
				return nil
			}
			if phase >= s.SCVPhases { // fallback: ask the little nodes
				return sim.ToAll(v.id, v.top.L, sim.Inquiry{})
			}
			overlay, err := v.top.Inquiry.Phase(phase + 1)
			if err != nil {
				panic("consensus: inquiry overlay unavailable: " + err.Error())
			}
			return v.out.FanOut(v.id, overlay.Neighbors(v.id), sim.Inquiry{})
		}
		if !v.decided || len(v.inquirers) == 0 {
			return nil
		}
		return v.out.FanOut(v.id, v.inquirers, VectorPayload{Set: v.decision})
	default:
		return nil
	}
}

// absorb ORs a received vector into the candidate, reporting growth.
func (v *VectorFewCrashes) absorb(s *bitset.Set) bool {
	before := v.candidate.Count()
	v.candidate.UnionWith(s)
	return v.candidate.Count() > before
}

// Deliver implements sim.Protocol.
func (v *VectorFewCrashes) Deliver(round int, inbox []sim.Envelope) {
	s := &v.top.Schedule
	switch {
	case round < s.AEAFlood:
		if v.top.IsLittle(v.id) {
			grew := false
			for _, env := range inbox {
				if p, ok := env.Payload.(VectorPayload); ok && v.absorb(p.Set) {
					grew = true
				}
			}
			if grew && round+1 < s.AEAFlood {
				v.pending = true
			}
		}
	case round < s.AEAProbe:
		if v.probing == nil {
			return
		}
		count := 0
		for _, env := range inbox {
			if p, ok := env.Payload.(VectorProbe); ok {
				count++
				v.absorb(p.Set)
			}
		}
		v.probing.Observe(round-s.AEAFlood, count)
		if v.probing.Done() && v.probing.Survived() && !v.decided {
			v.decided = true
			v.decision = v.candidate.Clone()
			v.pending = true // broadcast in SCV Part 1
		}
	case round < s.AEA:
		if !v.top.IsLittle(v.id) && !v.decided {
			for _, env := range inbox {
				if env.From != v.top.LittleOf(v.id) {
					continue
				}
				if p, ok := env.Payload.(VectorPayload); ok {
					v.decided = true
					v.decision = p.Set.Clone()
					v.pending = true
					break
				}
			}
		}
	case round < s.FewBroadcast:
		if !v.decided {
			for _, env := range inbox {
				if p, ok := env.Payload.(VectorPayload); ok {
					v.decided = true
					v.decision = p.Set.Clone()
					if round+1 < s.FewBroadcast {
						v.pending = true
					}
					break
				}
			}
		}
	case round < s.Few:
		off := round - s.FewBroadcast
		if off%2 == 0 {
			if v.decided {
				for _, env := range inbox {
					if _, ok := env.Payload.(sim.Inquiry); ok {
						v.inquirers = append(v.inquirers, env.From)
					}
				}
			}
		} else if !v.decided {
			for _, env := range inbox {
				if p, ok := env.Payload.(VectorPayload); ok {
					v.decided = true
					v.decision = p.Set.Clone()
					break
				}
			}
		}
	}
	if round == s.Few-1 {
		v.halted = true
	}
}

// Halted implements sim.Protocol.
func (v *VectorFewCrashes) Halted() bool { return v.halted }

var _ sim.Protocol = (*VectorFewCrashes)(nil)
