package singleport

import (
	"fmt"
	"sort"

	"lineartime/internal/consensus"
	"lineartime/internal/expander"
	"lineartime/internal/gossip"
	"lineartime/internal/probe"
	"lineartime/internal/sim"
)

// GossipSchedule compiles the Figure 5 gossip phases to the
// single-port model and is shared by every node of a run (the paper's
// "graphs known to every node"). Per phase i of each part the schedule
// reserves, with d_i the inquiry-overlay degree and d the little
// overlay degree:
//
//	Part 1: d_i inquiry-send slots, d_i inquiry-poll slots, d_i
//	  response-send slots, d_i response-poll slots, then γ·2d probing
//	  slots;
//	Part 2: d_i push-send slots, d_i push-poll slots, then γ·2d
//	  probing slots.
//
// Inquiry overlays are capped at degree Θ(t) (§8: scheduling O(t)
// links per node suffices), so the total is O(t + log n·log t·d)
// single-port rounds — the "similar asymptotic running time" of the
// multi-port Theorem 9 plus the port-multiplexing constants.
type GossipSchedule struct {
	Top    *consensus.Topology
	Family *expander.InquiryFamily

	blocks []gossipBlock
	total  int
}

type blockKind int

const (
	blockInqSend blockKind = iota + 1
	blockInqPoll
	blockRespSend
	blockRespPoll
	blockPushSend
	blockPushPoll
	blockProbe
)

type gossipBlock struct {
	kind    blockKind
	part    int // 1 or 2
	phase   int // 0-based
	start   int
	length  int
	overlay *expander.Overlay // inquiry overlay for non-probe blocks
}

// gossipFamily is the inquiry family the schedule runs over, its
// degrees capped at Θ(t).
func gossipFamily(n, t int, seed uint64) *expander.InquiryFamily {
	return expander.NewCappedInquiryFamily(n, 8, max(8*t, 64), seed+31)
}

// layout lays the schedule's blocks out from the round plan and the
// family's phase degrees alone: no overlay is built.
func layout(s *consensus.Schedule, fam *expander.InquiryFamily) (blocks []gossipBlock, total int) {
	add := func(kind blockKind, part, phase, length int) {
		blocks = append(blocks, gossipBlock{kind: kind, part: part, phase: phase, start: total, length: length})
		total += length
	}
	for part := 1; part <= 2; part++ {
		for phase := 0; phase < s.GossipPhases; phase++ {
			di := fam.PhaseParams(phase + 1).Degree
			if part == 1 {
				add(blockInqSend, part, phase, di)
				add(blockInqPoll, part, phase, di)
				add(blockRespSend, part, phase, di)
				add(blockRespPoll, part, phase, di)
			} else {
				add(blockPushSend, part, phase, di)
				add(blockPushPoll, part, phase, di)
			}
			add(blockProbe, part, phase, s.Little.Gamma*2*s.Little.Degree)
		}
	}
	return blocks, total
}

// GossipLength returns the round count of the single-port gossip
// schedule for n nodes and crash bound t on the round plan s, without
// building anything.
func GossipLength(n, t int, s *consensus.Schedule) int {
	_, total := layout(s, gossipFamily(n, t, 0))
	return total
}

// NewGossipSchedule builds the shared schedule for n nodes and crash
// bound t (t < n/5), deterministically from the topology seed.
func NewGossipSchedule(top *consensus.Topology, seed uint64) (*GossipSchedule, error) {
	fam := gossipFamily(top.N, top.T, seed)
	s := &GossipSchedule{Top: top, Family: fam}
	s.blocks, s.total = layout(&top.Schedule, fam)
	for i := range s.blocks {
		if b := &s.blocks[i]; b.kind != blockProbe {
			overlay, err := fam.Phase(b.phase + 1)
			if err != nil {
				return nil, fmt.Errorf("single-port gossip schedule: %w", err)
			}
			b.overlay = overlay
		}
	}
	return s, nil
}

// Length returns the total single-port round count.
func (s *GossipSchedule) Length() int { return s.total }

// locate returns the block containing the round and the offset within.
func (s *GossipSchedule) locate(round int) (*gossipBlock, int) {
	i := sort.Search(len(s.blocks), func(i int) bool {
		return s.blocks[i].start+s.blocks[i].length > round
	})
	if i >= len(s.blocks) {
		return nil, 0
	}
	b := &s.blocks[i]
	return b, round - b.start
}

// SPGossip is the single-port per-node gossip machine.
type SPGossip struct {
	id       int
	schedule *GossipSchedule

	extant     *gossip.ExtantSet
	completion *gossip.CompletionSet // little nodes only

	probing      *probe.Probing
	survivedPrev bool
	probeRecv    int

	// inquired[k] marks that inquiry-overlay neighbor k inquired this
	// node in the current phase.
	inquired []bool

	halted bool
}

// NewSPGossip creates the single-port gossip machine for node id.
func NewSPGossip(id int, schedule *GossipSchedule, rumor gossip.Rumor) *SPGossip {
	top := schedule.Top
	g := &SPGossip{
		id:           id,
		schedule:     schedule,
		extant:       gossip.NewExtantSet(top.N),
		survivedPrev: true,
	}
	g.extant.Update(id, rumor)
	if top.IsLittle(id) {
		g.probing = probe.New(top.Little.Neighbors(id), top.Little.P.Gamma, top.Little.P.Delta)
		g.completion = gossip.NewCompletionSet(top.N)
		g.completion.Add(id)
	}
	return g
}

// Extant returns the node's extant set (the decided output).
func (g *SPGossip) Extant() *gossip.ExtantSet { return g.extant }

func (g *SPGossip) neighborAt(b *gossipBlock, slot int) int {
	nbrs := b.overlay.Neighbors(g.id)
	if slot < 0 || slot >= len(nbrs) {
		return -1
	}
	return nbrs[slot]
}

func (g *SPGossip) littleNeighborAt(slot int) int {
	nbrs := g.schedule.Top.Little.Neighbors(g.id)
	if slot < 0 || slot >= len(nbrs) {
		return -1
	}
	return nbrs[slot]
}

func (g *SPGossip) little() bool { return g.probing != nil }

// eligible reports whether the node may initiate in this phase (§5:
// survived the previous phase's probing, unconditional in phase 0).
func (g *SPGossip) eligible(phase int) bool {
	return g.little() && (phase == 0 || g.survivedPrev)
}

// Send implements sim.Protocol.
func (g *SPGossip) Send(round int) []sim.Envelope {
	b, off := g.schedule.locate(round)
	if b == nil {
		return nil
	}
	switch b.kind {
	case blockInqSend:
		if off == 0 {
			g.resetInquired(b)
		}
		if !g.eligible(b.phase) {
			return nil
		}
		to := g.neighborAt(b, off)
		if to >= 0 && !g.extant.Present(to) {
			return []sim.Envelope{{From: g.id, To: to, Payload: sim.Inquiry{}}}
		}
	case blockRespSend:
		to := g.neighborAt(b, off)
		if to >= 0 && off < len(g.inquired) && g.inquired[off] {
			return []sim.Envelope{{From: g.id, To: to,
				Payload: gossip.PairPayload{Node: g.id, Value: g.extant.Rumor(g.id)}}}
		}
	case blockPushSend:
		if !g.eligible(b.phase) {
			return nil
		}
		to := g.neighborAt(b, off)
		if to >= 0 && g.completion.Add(to) {
			return []sim.Envelope{{From: g.id, To: to, Payload: gossip.ExtantPayload{Set: g.extant.Snapshot()}}}
		}
	case blockProbe:
		if !g.little() {
			return nil
		}
		d := g.schedule.Top.Little.P.Degree
		slot := off % (2 * d)
		if slot == 0 && off == 0 {
			g.probeRecv = 0
		}
		if slot < d && g.probing.Active() {
			if to := g.littleNeighborAt(slot); to >= 0 {
				var payload sim.Payload
				if b.part == 1 {
					payload = gossip.ExtantPayload{Set: g.extant.Snapshot()}
				} else {
					payload = gossip.CompletionPayload{Set: g.completion.Snapshot()}
				}
				return []sim.Envelope{{From: g.id, To: to, Payload: payload}}
			}
		}
	}
	return nil
}

func (g *SPGossip) resetInquired(b *gossipBlock) {
	need := b.overlay.P.Degree
	if cap(g.inquired) < need {
		g.inquired = make([]bool, need)
		return
	}
	g.inquired = g.inquired[:need]
	for i := range g.inquired {
		g.inquired[i] = false
	}
}

// Poll implements sim.Poller.
func (g *SPGossip) Poll(round int) (sim.NodeID, bool) {
	b, off := g.schedule.locate(round)
	if b == nil {
		return 0, false
	}
	switch b.kind {
	case blockInqPoll, blockPushPoll:
		if from := g.neighborAt(b, off); from >= 0 {
			return from, true
		}
	case blockRespPoll:
		if g.little() {
			if from := g.neighborAt(b, off); from >= 0 {
				return from, true
			}
		}
	case blockProbe:
		if g.little() {
			d := g.schedule.Top.Little.P.Degree
			slot := off % (2 * d)
			if slot >= d {
				if from := g.littleNeighborAt(slot - d); from >= 0 {
					return from, true
				}
			}
		}
	}
	return 0, false
}

// Deliver implements sim.Protocol.
func (g *SPGossip) Deliver(round int, inbox []sim.Envelope) {
	b, off := g.schedule.locate(round)
	if b != nil {
		switch b.kind {
		case blockInqPoll:
			for _, env := range inbox {
				if _, ok := env.Payload.(sim.Inquiry); ok {
					if k := g.neighborIndex(b, env.From); k >= 0 && k < len(g.inquired) {
						g.inquired[k] = true
					}
				}
			}
		case blockRespPoll:
			for _, env := range inbox {
				if p, ok := env.Payload.(gossip.PairPayload); ok {
					g.extant.Update(p.Node, p.Value)
				}
			}
		case blockPushPoll:
			for _, env := range inbox {
				if p, ok := env.Payload.(gossip.ExtantPayload); ok {
					g.extant.MergeFrom(p.Set)
				}
			}
		case blockProbe:
			if g.little() {
				for _, env := range inbox {
					switch p := env.Payload.(type) {
					case gossip.ExtantPayload:
						g.probeRecv++
						g.extant.MergeFrom(p.Set)
					case gossip.CompletionPayload:
						g.probeRecv++
						g.completion.MergeFrom(p.Set)
					}
				}
				d := g.schedule.Top.Little.P.Degree
				if off%(2*d) == 2*d-1 {
					g.probing.Observe(off/(2*d), g.probeRecv)
					g.probeRecv = 0
					if g.probing.Done() {
						g.survivedPrev = g.probing.Survived()
						g.probing.Reset()
					}
				}
			}
		}
	}
	if round == g.schedule.Length()-1 {
		g.halted = true
	}
}

// neighborIndex returns the index of `from` in this node's adjacency
// of the block's overlay, or -1.
func (g *SPGossip) neighborIndex(b *gossipBlock, from int) int {
	nbrs := b.overlay.Neighbors(g.id)
	i := sort.SearchInts(nbrs, from)
	if i < len(nbrs) && nbrs[i] == from {
		return i
	}
	return -1
}

// Halted implements sim.Protocol.
func (g *SPGossip) Halted() bool { return g.halted }

var (
	_ sim.Protocol = (*SPGossip)(nil)
	_ sim.Poller   = (*SPGossip)(nil)
)
