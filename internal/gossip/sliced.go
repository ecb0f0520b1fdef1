package gossip

import (
	"fmt"
	"math/bits"

	"lineartime/internal/bitset"
	"lineartime/internal/consensus"
	"lineartime/internal/probe"
	"lineartime/internal/sim"
)

// SlicedGossip is the lane-parallel implementation of Gossip
// (Figure 5) for the bit-sliced engine: 64 independent replicas of the
// protocol over one shared topology, one bit per lane. The per-node
// extant and completion sets — one bit per node pair in the scalar
// machine — become 64-lane word planes, so a set merge is an OR over n
// words for all lanes at once, and the overlay traversal plus phase
// schedule amortize across the whole batch.
//
// Payload contents never ride the wire: a message's SlicedMsg.Tag
// names its payload type, and for extant/completion sets it also names
// a snapshot slot — the sender's set planes copied at send time into a
// ring of maxDelay+1 slots, which receivers merge from at delivery.
// The snapshot reproduces the scalar Clone-at-send semantics (a
// receiver merges the sender's state as of the send round, not its
// live state), and the ring keeps a slot alive until the last delayed
// copy of its round's messages can arrive. Sets only grow, and for the
// γ probing rounds of a phase a little node mostly re-sends a set its
// neighbours already merged, so every snapshot carries a version —
// bumped only when the set grew since the node's last snapshot — and a
// receiver that already merged that version in a message's lanes skips
// the merge: it could not change anything (laneSets). Rumor values are
// not stored
// at all: first-write-wins updates make every copy of node u's pair
// equal to u's own rumor, so presence bits suffice and callers
// reconstruct values from the per-lane inputs.
//
// Equivalence contract (pinned by the scenario-level parity suite):
// per lane, byte-identical behaviour to the scalar Gossip machine
// under the same fault layer — same sends in the same order, same
// merges, same probing pauses and survivals, same halting round.
// Nothing in the protocol escapes word logic, so the escape mask is
// always zero.
type SlicedGossip struct {
	n, L  int
	lanes int
	all   uint64
	sched *consensus.Schedule

	delta    int
	ringSize int // snapshot slots: maxDelay+1

	// Captured adjacency: inqNbrs[phase][i] is little node i's G_{phase+1}
	// inquiry overlay (used by Part 1 inquiries and Part 2 pushes alike),
	// littleNbrs[i] its probing overlay. Captured once at construction,
	// so a round indexes slices instead of asking the overlays.
	inqNbrs    [][][]int
	littleNbrs [][]int

	ext     laneSets // extant sets, one per node
	comp    laneSets // completion sets, one per little node
	haltedW []uint64 // per node: lanes halted
	inqFrom [][]inqEntry

	prob *probe.Sliced

	// snapCnt[slot*L+i] is the per-lane cardinality of the extant
	// snapshot in that ring column, for wire accounting.
	snapCnt [][64]int64

	snapCtr  bitset.LaneCounter
	probeCtr bitset.LaneCounter
	// probeLanes collects a probing round's counted lane masks for one
	// AddWords call; presized, so the steady state does not grow it.
	probeLanes []uint64
}

// laneSets is one family of per-node sets — extant or completion — as
// 64-lane planes, together with its snapshot ring and the versions that
// make re-sent snapshots free to receive.
type laneSets struct {
	n, L int
	// live[row*n+u] is the lanes in which row's set has u; grown[row]
	// the lanes in which that set grew since row's last snapshot, and
	// full[row] the lanes in which it held all n names at row's last
	// merge.
	live  []uint64
	grown []uint64
	full  []uint64
	// Little node i's content has version ver[i] (bumped at a snapshot
	// iff the set grew since the previous one); ring column slot*L+i
	// holds snap[(slot*L+i)*n:][:n] at version snapVer[slot*L+i], 0
	// meaning nothing written this run.
	ver     []uint32
	snap    []uint64
	snapVer []uint32
	// seen[row*L+i] is the last version of i's set merged into row's,
	// and the lanes it was merged in.
	seen []seenSnap
}

type seenSnap struct {
	lanes uint64
	ver   uint32
}

func newLaneSets(rows, n, L, ringSize int) laneSets {
	return laneSets{
		n: n, L: L,
		live:    make([]uint64, rows*n),
		grown:   make([]uint64, rows),
		full:    make([]uint64, rows),
		ver:     make([]uint32, L),
		snap:    make([]uint64, ringSize*L*n),
		snapVer: make([]uint32, ringSize*L),
		seen:    make([]seenSnap, rows*L),
	}
}

// reset empties every set and forgets every version. Ring columns need
// no clearing: snapVer 0 marks them unwritten.
func (s *laneSets) reset() {
	clear(s.live)
	clear(s.grown)
	clear(s.full)
	clear(s.ver)
	clear(s.snapVer)
	clear(s.seen)
}

// add puts u into row's set in the given lanes.
func (s *laneSets) add(row, u int, lanes uint64) {
	p := &s.live[row*s.n+u]
	s.grown[row] |= lanes &^ *p
	*p |= lanes
}

// snapshot makes ring column (slot, i) hold little node i's set as of
// now and returns it; fresh reports whether the column had to be
// rewritten (false: it already held the current version).
func (s *laneSets) snapshot(slot, i int) (col []uint64, fresh bool) {
	if s.grown[i] != 0 {
		s.grown[i] = 0
		s.ver[i]++
	}
	c := slot*s.L + i
	col = s.snap[c*s.n:][:s.n]
	if s.snapVer[c] == s.ver[i] {
		return col, false
	}
	s.snapVer[c] = s.ver[i]
	copy(col, s.live[i*s.n:][:s.n])
	return col, true
}

// merge ORs the snapshot m names into row's set, confined to the lanes
// eff the message arrived in. Sets only grow, so a lane in which row
// already merged this version of the sender's set — or already holds
// every name — cannot change and is skipped; for a re-sent snapshot
// that is the whole message.
func (s *laneSets) merge(row int, m *sim.SlicedMsg, eff uint64) {
	if eff &^= s.full[row]; eff == 0 {
		return
	}
	c := int(m.Tag>>tagSlotShift)*s.L + int(m.From)
	seen := &s.seen[row*s.L+int(m.From)]
	if v := s.snapVer[c]; seen.ver != v {
		*seen = seenSnap{lanes: eff, ver: v}
	} else {
		if eff &^= seen.lanes; eff == 0 {
			return
		}
		seen.lanes |= eff
	}
	grew, full := bitset.MergeMasked(s.live[row*s.n:][:s.n], s.snap[c*s.n:][:s.n], eff)
	s.grown[row] |= grew
	s.full[row] = full
}

// inqEntry is one Part 1 inquiry awaiting a response: the inquirer and
// the lanes its inquiry arrived in.
type inqEntry struct {
	from  int32
	lanes uint64
}

// Message tags: the low bits name the payload type, the rest the
// snapshot slot for set-carrying payloads.
const (
	tagInquiry    = 0
	tagPair       = 1
	tagExtant     = 2
	tagCompletion = 3
	tagTypeMask   = 3
	tagSlotShift  = 2

	pairBits = 16 + RumorBits
)

// NewSlicedGossip builds the lane-parallel machine for `lanes` replicas
// of Gossip over top, able to absorb link delays up to maxDelay rounds
// (the largest MaxDelay any lane's link filter declares; 0 when none
// delay). The constructor materializes every overlay neighborhood it
// will traverse; an error means an inquiry overlay could not be built.
func NewSlicedGossip(top *consensus.Topology, lanes, maxDelay int) (*SlicedGossip, error) {
	if lanes <= 0 || lanes > sim.MaxLanes {
		return nil, fmt.Errorf("gossip: sliced lanes must be in [1, %d], got %d", sim.MaxLanes, lanes)
	}
	if maxDelay < 0 {
		maxDelay = 0
	}
	n, L := top.N, top.L
	g := &SlicedGossip{
		n:        n,
		L:        L,
		lanes:    lanes,
		all:      bitset.LaneMask(lanes),
		sched:    &top.Schedule,
		delta:    top.Little.P.Delta,
		ringSize: maxDelay + 1,
	}
	g.inqNbrs = make([][][]int, g.sched.GossipPhases)
	for ph := range g.inqNbrs {
		o, err := top.Inquiry.Phase(ph + 1)
		if err != nil {
			return nil, fmt.Errorf("gossip: inquiry overlay %d: %w", ph+1, err)
		}
		row := make([][]int, L)
		for i := 0; i < L; i++ {
			row[i] = o.Neighbors(i)
		}
		g.inqNbrs[ph] = row
	}
	g.littleNbrs = make([][]int, L)
	for i := 0; i < L; i++ {
		g.littleNbrs[i] = top.Little.Neighbors(i)
	}
	g.prob = probe.NewSliced(L, g.delta)

	g.ext = newLaneSets(n, n, L, g.ringSize)
	g.comp = newLaneSets(L, n, L, g.ringSize)
	g.haltedW = make([]uint64, n)
	g.inqFrom = make([][]inqEntry, n)
	g.snapCnt = make([][64]int64, g.ringSize*L)
	// A set message comes from a little node, at most one per receiver
	// and send round, and arrives within ringSize rounds of its send.
	g.probeLanes = make([]uint64, 0, g.ringSize*L)
	g.Reset()
	return g, nil
}

// Reset rearms the machine for a fresh run over the same topology and
// lane count, allocation-free: every node knows only its own pair,
// little nodes have completed only themselves, nobody halted or
// paused, and no snapshot version or merged-lanes record of the
// previous run survives. Snapshot slots need no clearing — a run only
// reads slots its own sends wrote.
func (g *SlicedGossip) Reset() {
	g.ext.reset()
	g.comp.reset()
	clear(g.haltedW)
	for i := range g.inqFrom {
		g.inqFrom[i] = g.inqFrom[i][:0]
	}
	for v := 0; v < g.n; v++ {
		g.ext.add(v, v, g.all)
	}
	for i := 0; i < g.L; i++ {
		g.comp.add(i, i, g.all)
	}
	g.prob.Reset(g.all)
}

// N implements sim.SlicedSystem.
func (g *SlicedGossip) N() int { return g.n }

// LaneViews is every node's extant membership, per lane, as packed
// words — the per-lane decided output, which the batch runner
// materializes reports from. The machine's extant planes hold 64 lanes
// per member; this is them transposed to 64 members per lane, the
// layout a per-lane report is decoded from. It is a copy: later rounds
// do not change it.
type LaneViews struct {
	n, words int
	rows     []uint64 // lane-major: (lane*n + node)*words
}

// Members returns node's extant set in the given lane as ⌈n/64⌉ words,
// bit b of word w standing for member 64w+b; bits at or above n are
// clear. The slice aliases the views.
func (v *LaneViews) Members(lane, node int) []uint64 {
	return v.rows[(lane*v.n+node)*v.words:][:v.words]
}

// LaneViews transposes the machine's extant planes for all configured
// lanes at once: one 64×64 bit transpose per 64 members of a node, in
// place of a bit test per (node, member, lane).
func (g *SlicedGossip) LaneViews() *LaneViews {
	n, words := g.n, (g.n+63)/64
	v := &LaneViews{n: n, words: words, rows: make([]uint64, g.lanes*n*words)}
	var m [64]uint64
	for node := 0; node < n; node++ {
		live := g.ext.live[node*n:][:n]
		for w := 0; w < words; w++ {
			k := copy(m[:], live[w*64:])
			clear(m[k:])
			bitset.Transpose64(&m)
			for lane := 0; lane < g.lanes; lane++ {
				v.rows[(lane*n+node)*words+w] = m[lane]
			}
		}
	}
	return v
}

func (g *SlicedGossip) slot(round int) int { return round % g.ringSize }

// snapshotExtant snapshots node's extant planes into the slot's column
// and, when the column changed, records the per-lane cardinality for
// wire-size accounting. (Completion payloads have lane-independent
// wire size, one bitmap, so they need no such record.)
func (g *SlicedGossip) snapshotExtant(slot, node int) {
	col, fresh := g.ext.snapshot(slot, node)
	if !fresh {
		return
	}
	g.snapCtr.Reset()
	g.snapCtr.AddWords(col)
	cnt := &g.snapCnt[slot*g.L+node]
	*cnt = [64]int64{}
	g.snapCtr.Flush(cnt)
}

// SlicedSend implements sim.SlicedSystem, mirroring Gossip.Send per
// lane: the append order filtered to a lane is exactly the scalar
// machine's emission order in that lane.
func (g *SlicedGossip) SlicedSend(round, node int, active uint64, out []sim.SlicedMsg) ([]sim.SlicedMsg, uint64) {
	if round >= g.sched.Gossip {
		return out, 0
	}
	part, phase, off := g.sched.GossipAt(round)
	switch off {
	case 0: // inquiry (Part 1) / push (Part 2) round: little nodes only
		if node >= g.L {
			return out, 0
		}
		gate := active
		if phase > 0 {
			gate &= g.prob.SurvivedMask(node)
		}
		if gate == 0 {
			return out, 0
		}
		base := node * g.n
		if part == 1 {
			for _, u := range g.inqNbrs[phase][node] {
				if m := gate &^ g.ext.live[base+u]; m != 0 {
					out = append(out, sim.SlicedMsg{From: int32(node), To: int32(u), Lanes: m, Tag: tagInquiry})
				}
			}
			return out, 0
		}
		slot := g.slot(round)
		tag := uint32(tagExtant | slot<<tagSlotShift)
		var need uint64
		for _, u := range g.inqNbrs[phase][node] {
			if m := gate &^ g.comp.live[base+u]; m != 0 {
				g.comp.add(node, u, m)
				need |= m
				out = append(out, sim.SlicedMsg{From: int32(node), To: int32(u), Lanes: m, Tag: tag})
			}
		}
		if need != 0 {
			g.snapshotExtant(slot, node)
		}
		return out, 0
	case 1: // response round (Part 1 only)
		if part == 1 && len(g.inqFrom[node]) > 0 {
			for _, e := range g.inqFrom[node] {
				out = append(out, sim.SlicedMsg{From: int32(node), To: e.from, Lanes: e.lanes, Tag: tagPair})
			}
			g.inqFrom[node] = g.inqFrom[node][:0]
		}
		return out, 0
	default: // probing rounds: little nodes only
		if node >= g.L {
			return out, 0
		}
		send := g.prob.SendMask(node, active)
		nbrs := g.littleNbrs[node]
		if send == 0 || len(nbrs) == 0 {
			return out, 0
		}
		slot := g.slot(round)
		var tag uint32
		if part == 1 {
			g.snapshotExtant(slot, node)
			tag = uint32(tagExtant | slot<<tagSlotShift)
		} else {
			g.comp.snapshot(slot, node)
			tag = uint32(tagCompletion | slot<<tagSlotShift)
		}
		for _, u := range nbrs {
			out = append(out, sim.SlicedMsg{From: int32(node), To: int32(u), Lanes: send, Tag: tag})
		}
		return out, 0
	}
}

// SlicedDeliver implements sim.SlicedSystem, mirroring Gossip.Deliver:
// each (part, offset) block accepts exactly the payload types the
// scalar type switch accepts there, so delayed messages crossing into
// the wrong block are dropped or absorbed identically.
func (g *SlicedGossip) SlicedDeliver(round, node int, active uint64, inbox []sim.SlicedMsg) uint64 {
	if round >= g.sched.Gossip {
		return 0
	}
	part, phase, off := g.sched.GossipAt(round)
	switch {
	case off == 0 && part == 1: // inquiry arrivals
		for i := range inbox {
			m := &inbox[i]
			if m.Tag&tagTypeMask != tagInquiry {
				continue
			}
			if eff := m.Lanes & active; eff != 0 {
				g.inqFrom[node] = append(g.inqFrom[node], inqEntry{from: m.From, lanes: eff})
			}
		}
	case off == 0: // Part 2 push arrivals: absorb pushed extant sets
		for i := range inbox {
			m := &inbox[i]
			if m.Tag&tagTypeMask != tagExtant {
				continue
			}
			if eff := m.Lanes & active; eff != 0 {
				g.ext.merge(node, m, eff)
			}
		}
	case off == 1: // response arrivals (Part 1 only)
		if part == 1 {
			for i := range inbox {
				m := &inbox[i]
				if m.Tag&tagTypeMask != tagPair {
					continue
				}
				// The responder sends its own pair, whose value is
				// determined by the sender name — presence is the state.
				g.ext.add(node, int(m.From), m.Lanes&active)
			}
		}
	default: // probing rounds
		if node < g.L {
			counted := g.probeLanes[:0]
			for i := range inbox {
				m := &inbox[i]
				eff := m.Lanes & active
				if eff == 0 {
					continue
				}
				switch m.Tag & tagTypeMask {
				case tagExtant:
					counted = append(counted, eff)
					g.ext.merge(node, m, eff)
				case tagCompletion:
					counted = append(counted, eff)
					g.comp.merge(node, m, eff)
				}
			}
			g.probeLanes = counted
			g.probeCtr.Reset()
			g.probeCtr.AddWords(counted)
			g.prob.Observe(node, &g.probeCtr, active)
			if off == g.sched.GossipPhaseLen-1 {
				g.prob.FinishPhase(node, active, phase+1 < g.sched.GossipPhases || part == 1)
			}
		}
	}
	if round == g.sched.Gossip-1 {
		g.haltedW[node] |= active
	}
	return 0
}

// HaltedLanes implements sim.SlicedSystem.
func (g *SlicedGossip) HaltedLanes(node int) uint64 { return g.haltedW[node] }

// AddSlicedBits implements sim.SlicedSizer: per-lane wire sizes
// matching the scalar payloads — 1 bit per inquiry, a name and a rumor
// per pair, a bitmap per completion set, and a bitmap plus the
// snapshotted per-lane cardinality of rumors per extant set — times the
// length of the fan-out run. Only the extant size varies by lane.
func (g *SlicedGossip) AddSlicedBits(m sim.SlicedMsg, lanes uint64, times int, acc *[64]int64) {
	size := int64(times) // an inquiry is one bit
	switch m.Tag & tagTypeMask {
	case tagPair:
		size *= pairBits
	case tagCompletion:
		size *= int64(g.n)
	case tagExtant:
		cnt := &g.snapCnt[int(m.Tag>>tagSlotShift)*g.L+int(m.From)]
		for w := lanes; w != 0; w &= w - 1 {
			lane := bits.TrailingZeros64(w)
			acc[lane] += size * (int64(g.n) + RumorBits*cnt[lane])
		}
		return
	}
	for w := lanes; w != 0; w &= w - 1 {
		acc[bits.TrailingZeros64(w)] += size
	}
}

var (
	_ sim.SlicedSystem = (*SlicedGossip)(nil)
	_ sim.SlicedSizer  = (*SlicedGossip)(nil)
)
