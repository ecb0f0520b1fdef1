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

	extant     ExtantSet
	completion CompletionSet // little nodes only
	self       PairPayload   // the node's own pair, sent by pointer
	out        sim.Outbox

	little       bool          // probes and keeps a completion set
	probing      probe.Probing // little nodes only
	armed        int           // first round of the phase whose instance probing holds
	survivedPrev bool          // survived the previous phase's probing
	moved        bool          // the last probing Deliver grew a set or paused
	inquirers    []int         // Part 1 inquiry senders awaiting a response
	halted       bool
}

// New creates the gossip machine for node id with the given rumor.
func New(id int, top *consensus.Topology, rumor Rumor) *Gossip {
	return NewIn(id, top, rumor, &Slab{})
}

// sendCap returns the envelopes node id sends in its widest round over
// G_1 and the little overlay — inquiries or pushes to its G_1
// neighbours, responses to its little G_1 neighbours, probes to its
// little neighbours — from the overlays' resolved degrees in the
// topology's schedule, so that nothing is built. It also bounds the
// inquirers the node answers in one round of phase 1. The denser G_i of
// later phases, consulted only after crashes, grow the buffers like
// any sim.Outbox.
func sendCap(top *consensus.Topology, id int) int {
	c := top.Schedule.G1.Degree
	if top.IsLittle(id) {
		c = max(c, top.Schedule.Little.Degree)
	}
	return c
}

// NewIn is New with the machine and everything it holds cut from s,
// along with every snapshot it hands out while it runs.
func NewIn(id int, top *consensus.Topology, rumor Rumor, s *Slab) *Gossip {
	c := sendCap(top, id)
	g := &s.machines.take(1)[0]
	*g = Gossip{
		id:           id,
		top:          top,
		extant:       newExtantSet(top.N, s),
		self:         PairPayload{Node: id, Value: rumor},
		out:          s.envelopes.take(c)[:0],
		little:       top.IsLittle(id),
		survivedPrev: true,
		inquirers:    s.ints.take(c)[:0],
	}
	g.extant.Update(id, rumor)
	if g.little {
		g.probing = *probe.New(top.Little.Neighbors(id), top.Little.P.Gamma, top.Little.P.Delta)
		g.completion = newCompletionSet(top.N, s)
		g.completion.Add(id)
	}
	return g
}

// Extant returns the node's extant set (the decided output).
func (g *Gossip) Extant() *ExtantSet { return &g.extant }

// overlayFor returns the inquiry overlay of the given 0-based phase.
func (g *Gossip) overlayFor(phase int) []int {
	o, err := g.top.Inquiry.Phase(phase + 1)
	if err != nil {
		panic("gossip: inquiry overlay unavailable: " + err.Error())
	}
	return o.Neighbors(g.id)
}

// close ends the probing instance of an earlier phase on the first call
// of the phase that starts in round start: the node survived it unless
// it paused, and the automaton is rearmed. The instance's last rounds
// may have been repeated rather than executed (see RepeatUntil), so it
// closes here, not in its last Deliver.
func (g *Gossip) close(start int) {
	if g.little && g.armed < start {
		g.survivedPrev = !g.probing.Paused()
		g.probing.Reset()
		g.armed = start
	}
}

// survived returns survivedPrev as close(start) would leave it.
func (g *Gossip) survived(start int) bool {
	if g.little && g.armed < start {
		return !g.probing.Paused()
	}
	return g.survivedPrev
}

// Send implements sim.Protocol.
func (g *Gossip) Send(round int) []sim.Envelope {
	s := &g.top.Schedule
	if round >= s.Gossip {
		return nil
	}
	part, phase, off := s.GossipAt(round)
	g.close(round - off)
	switch off {
	case 0: // inquiry (Part 1) / push (Part 2) round
		if !g.little || (phase > 0 && !g.survivedPrev) {
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
			out := g.out.FanOut(g.id, g.inquirers, &g.self)
			g.inquirers = g.inquirers[:0]
			return out
		}
		return nil
	default: // probing rounds
		if !g.little {
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
	part, _, off := s.GossipAt(round)
	g.close(round - off)
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
				if p, ok := env.Payload.(*PairPayload); ok {
					g.extant.Update(p.Node, p.Value)
				}
			}
		}
	default:
		if g.little {
			extant, covered, paused := g.extant.Count(), g.completion.count, g.probing.Paused()
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
			g.probing.Observe(off-2, count)
			g.moved = g.extant.Count() != extant || g.completion.count != covered || g.probing.Paused() != paused
		}
	}
	if round == s.Gossip-1 {
		g.halted = true
	}
}

// Halted implements sim.Protocol.
func (g *Gossip) Halted() bool { return g.halted }

// QuietUntil implements sim.Sleeper. A non-little node sends only
// responses to inquiries, so with none pending it is silent until the
// halting round unless something arrives. A little node is silent
// through a phase's inquiry/push and response rounds when it has nobody
// to inquire of or push to — its view or coverage is full, or it paused
// in the previous phase's instance, which closes on the phase's first
// call — and no inquirer to answer; it probes in every probing round.
func (g *Gossip) QuietUntil(round int) int {
	s := &g.top.Schedule
	if round >= s.Gossip-1 || len(g.inquirers) > 0 {
		return round
	}
	if !g.little {
		return s.Gossip - 1
	}
	part, phase, off := s.GossipAt(round)
	switch {
	case off >= 2:
		return round
	case off == 0 && (phase == 0 || g.survived(round)) &&
		(part == 1 && g.extant.Count() < g.top.N || part == 2 && !g.completion.Full()):
		return round
	}
	return round - off + 2
}

// RepeatUntil implements sim.Sleeper. Inside one local-probing instance
// a little node whose last Deliver grew neither its extant nor its
// completion set and left its pause as it was is at a fixed point: the
// same snapshots go to the same neighbours, and merging the same inbox
// again changes nothing. Both rounds must be probing rounds of one part
// (Part 1 probes with extant sets, Part 2 with completion sets). When
// round lies in a later phase than the template, the silent rounds
// between closed the template's instance and rearmed the automaton, so
// the node must also have survived that instance: a node that paused
// there sent nothing in last and probes again now. The span runs
// through the end of round's instance, whose last Deliver only ends it
// (the close happens on the next phase's first call), but stops before
// the halting round, which must run. A non-little node sends nothing
// and ignores its inbox while probing, so it repeats as far.
func (g *Gossip) RepeatUntil(round, last int) int {
	s := &g.top.Schedule
	if round >= s.Gossip-1 || last < 0 {
		return round
	}
	part, _, off := s.GossipAt(round)
	lastPart, _, lastOff := s.GossipAt(last)
	start := round - off
	if off < 2 || lastOff < 2 || part != lastPart ||
		g.little && (g.moved || last < start && !g.survived(start)) {
		return round
	}
	return min(start+s.GossipPhaseLen, s.Gossip-1)
}

// Ignores implements sim.Sleeper: gossip reads every round it is
// delivered.
func (g *Gossip) Ignores(int) bool { return false }

var _ sim.Sleeper = (*Gossip)(nil)
