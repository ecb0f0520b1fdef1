package gossip

import (
	"lineartime/internal/consensus"
	"lineartime/internal/probe"
	"lineartime/internal/sim"
)

// Gossip is the per-node state machine of algorithm Gossip (Figure 5),
// assuming t < n/5. It runs two parts of ⌈lg n⌉ phases each. Every
// phase has two inquiry/response rounds over the growing overlay G_i
// followed by 2+lg(5t) rounds of local probing on the little overlay G:
//
//	Part 1 builds extant sets: little nodes pull absent pairs from
//	their G_i neighbors and synchronize through probing.
//	Part 2 builds completion sets: little nodes push their (by then
//	complete) extant sets to G_i neighbors they have not covered yet,
//	tracking coverage in completion sets merged through probing.
//
// Theorem 9: O(log n · log t) rounds and O(n + t·log n·log t) messages.
type Gossip struct {
	id  int
	top *consensus.Topology

	extant     *ExtantSet
	completion *CompletionSet // little nodes only
	self       sim.Payload    // the node's own pair, boxed once
	out        sim.Outbox

	probing      *probe.Probing
	survivedPrev bool  // survived the previous phase's probing
	inquirers    []int // Part 1 inquiry senders awaiting a response
	halted       bool
}

// New creates the gossip machine for node id with the given rumor.
func New(id int, top *consensus.Topology, rumor Rumor) *Gossip {
	g := &Gossip{
		id:           id,
		top:          top,
		extant:       NewExtantSet(top.N),
		survivedPrev: true,
	}
	g.extant.Update(id, rumor)
	g.self = PairPayload{Node: id, Value: rumor}
	if top.IsLittle(id) {
		g.probing = probe.New(top.Little.Neighbors(id), top.Little.P.Gamma, top.Little.P.Delta)
		g.completion = NewCompletionSet(top.N)
		g.completion.Add(id)
	}
	return g
}

// ScheduleLength returns the protocol's fixed round count.
func (g *Gossip) ScheduleLength() int { return g.top.Schedule.Gossip }

// Extant returns the node's extant set (the decided output).
func (g *Gossip) Extant() *ExtantSet { return g.extant }

// overlayFor returns the inquiry overlay of the given 0-based phase.
func (g *Gossip) overlayFor(phase int) []int {
	o, err := g.top.Inquiry.Phase(phase + 1)
	if err != nil {
		panic("gossip: inquiry overlay unavailable: " + err.Error())
	}
	return o.Neighbors(g.id)
}

// Send implements sim.Protocol.
func (g *Gossip) Send(round int) []sim.Envelope {
	s := &g.top.Schedule
	if round >= s.Gossip {
		return nil
	}
	part, phase, off := s.GossipAt(round)
	little := g.top.IsLittle(g.id)
	switch off {
	case 0: // inquiry (Part 1) / push (Part 2) round
		if !little || (phase > 0 && !g.survivedPrev) {
			return nil
		}
		g.out.Reset(0)
		// G_i has a job only when crashes left someone to ask (Part 1) or
		// to cover (Part 2); over a full set it is not even built.
		switch {
		case part == 1 && g.extant.Count() < g.top.N:
			for _, u := range g.overlayFor(phase) {
				if !g.extant.Present(u) {
					g.out.Add(g.id, u, sim.Inquiry{})
				}
			}
		case part == 2 && !g.completion.Full():
			for _, u := range g.overlayFor(phase) {
				if g.completion.Add(u) {
					g.out.Add(g.id, u, ExtantPayload{Set: g.extant.Snapshot()})
				}
			}
		}
		return g.out
	case 1: // response round (Part 1 only)
		if part == 1 && len(g.inquirers) > 0 {
			out := g.out.FanOut(g.id, g.inquirers, g.self)
			g.inquirers = g.inquirers[:0]
			return out
		}
		return nil
	default: // probing rounds
		if g.probing == nil {
			return nil
		}
		targets := g.probing.SendTargets()
		if len(targets) == 0 {
			return nil
		}
		// One snapshot shared by all targets: receivers only read it.
		if part == 1 {
			return g.out.FanOut(g.id, targets, ExtantPayload{Set: g.extant.Snapshot()})
		}
		return g.out.FanOut(g.id, targets, CompletionPayload{Set: g.completion.Snapshot()})
	}
}

// Deliver implements sim.Protocol.
func (g *Gossip) Deliver(round int, inbox []sim.Envelope) {
	s := &g.top.Schedule
	if round >= s.Gossip {
		return
	}
	part, phase, off := s.GossipAt(round)
	switch off {
	case 0:
		if part == 1 {
			for _, env := range inbox {
				if _, ok := env.Payload.(sim.Inquiry); ok {
					g.inquirers = append(g.inquirers, env.From)
				}
			}
		} else {
			// Part 2 push round: receivers absorb pushed extant sets.
			for _, env := range inbox {
				if p, ok := env.Payload.(ExtantPayload); ok {
					g.extant.MergeFrom(p.Set)
				}
			}
		}
	case 1:
		if part == 1 {
			for _, env := range inbox {
				if p, ok := env.Payload.(PairPayload); ok {
					g.extant.Update(p.Node, p.Value)
				}
			}
		}
	default:
		if g.probing != nil {
			count := 0
			for _, env := range inbox {
				switch p := env.Payload.(type) {
				case ExtantPayload:
					count++
					g.extant.MergeFrom(p.Set)
				case CompletionPayload:
					count++
					g.completion.MergeFrom(p.Set)
				}
			}
			g.probing.Observe(count)
			if g.probing.Done() {
				g.survivedPrev = g.probing.Survived()
				if phase+1 < s.GossipPhases || part == 1 {
					g.probing.Reset()
				}
			}
		}
	}
	if round == s.Gossip-1 {
		g.halted = true
	}
}

// Halted implements sim.Protocol.
func (g *Gossip) Halted() bool { return g.halted }

var _ sim.Protocol = (*Gossip)(nil)

// PartAt maps a round to its gossip part and block, for the engine's
// per-part message attribution.
func (g *Gossip) PartAt(round int) string { return g.top.Schedule.GossipPart(round) }
