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
		nbrs := v.top.Little.Neighbors(v.id)
		payload := VectorPayload{Set: v.snapshot()}
		out := make([]sim.Envelope, 0, len(nbrs))
		for _, to := range nbrs {
			out = append(out, sim.Envelope{From: v.id, To: to, Payload: payload})
		}
		return out
	case round < s.AEAProbe: // AEA Part 2: probing with vectors
		if v.probing == nil {
			return nil
		}
		targets := v.probing.SendTargets()
		if len(targets) == 0 {
			return nil
		}
		payload := VectorProbe{Set: v.snapshot()}
		out := make([]sim.Envelope, 0, len(targets))
		for _, to := range targets {
			out = append(out, sim.Envelope{From: v.id, To: to, Payload: payload})
		}
		return out
	case round < s.AEA: // AEA Part 3: notify related nodes
		if !v.top.IsLittle(v.id) || !v.decided {
			return nil
		}
		related := v.top.RelatedOf(v.id)
		payload := VectorPayload{Set: v.decision}
		out := make([]sim.Envelope, 0, len(related))
		for _, to := range related {
			out = append(out, sim.Envelope{From: v.id, To: to, Payload: payload})
		}
		return out
	case round < s.FewBroadcast: // SCV Part 1: broadcast over H
		if !v.pending || !v.decided {
			return nil
		}
		v.pending = false
		nbrs := v.top.MustBroadcast().Neighbors(v.id)
		payload := VectorPayload{Set: v.decision}
		out := make([]sim.Envelope, 0, len(nbrs))
		for _, to := range nbrs {
			out = append(out, sim.Envelope{From: v.id, To: to, Payload: payload})
		}
		return out
	case round < s.Few: // SCV Part 2: inquiry phases + fallback
		off := round - s.FewBroadcast
		phase := off / 2
		if off%2 == 0 {
			v.inquirers = v.inquirers[:0]
			if v.decided {
				return nil
			}
			targets := v.inquiryTargets(phase)
			out := make([]sim.Envelope, 0, len(targets))
			for _, to := range targets {
				out = append(out, sim.Envelope{From: v.id, To: to, Payload: sim.Inquiry{}})
			}
			return out
		}
		if !v.decided || len(v.inquirers) == 0 {
			return nil
		}
		payload := VectorPayload{Set: v.decision}
		out := make([]sim.Envelope, 0, len(v.inquirers))
		for _, to := range v.inquirers {
			out = append(out, sim.Envelope{From: v.id, To: to, Payload: payload})
		}
		return out
	default:
		return nil
	}
}

func (v *VectorFewCrashes) inquiryTargets(phase int) []int {
	if phase >= v.top.Schedule.SCVPhases {
		targets := make([]int, 0, v.top.L)
		for i := 0; i < v.top.L; i++ {
			if i != v.id {
				targets = append(targets, i)
			}
		}
		return targets
	}
	overlay, err := v.top.Inquiry.Phase(phase + 1)
	if err != nil {
		panic("consensus: inquiry overlay unavailable: " + err.Error())
	}
	return overlay.Neighbors(v.id)
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

// PartAt labels a round with its part, as FewCrashes does.
func (v *VectorFewCrashes) PartAt(round int) string { return v.top.Schedule.FewPart(round) }

var _ sim.Protocol = (*VectorFewCrashes)(nil)
