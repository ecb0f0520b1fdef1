package consensus

import (
	"lineartime/internal/bitset"
	"lineartime/internal/sim"
)

// SlicedFlooding is the lane-parallel form of Flooding: one machine
// executing up to 64 independent replicas of the n-node flooding
// system, each node's booleans (candidate, pending, flooded, decided,
// decision, halted) vectorized into one uint64 per node with one bit
// per lane. Every replica shares the same inputs and schedule — only
// the fault layer (applied by the sliced engine) differs per lane — so
// the whole protocol logic is word-wide AND/OR/XOR and never escapes.
//
// Per lane it is step-for-step the scalar Flooding machine: a node
// multicasts the first time its candidate becomes 1 within the t+2
// round schedule, adopts 1 on first receipt, and at round t+1 decides
// its candidate and halts.
type SlicedFlooding struct {
	n, t  int
	lanes int

	candidate []uint64
	pending   []uint64
	flooded   []uint64
	decided   []uint64
	decision  []uint64
	halted    []uint64
}

// NewSlicedFlooding creates the lane-parallel flooding system for n
// nodes with crash bound t, the given per-node input bits (shared by
// all lanes), and the given lane count (1..64).
func NewSlicedFlooding(n, t, lanes int, inputs []bool) *SlicedFlooding {
	all := bitset.LaneMask(lanes)
	f := &SlicedFlooding{
		n: n, t: t, lanes: lanes,
		candidate: make([]uint64, n),
		pending:   make([]uint64, n),
		flooded:   make([]uint64, n),
		decided:   make([]uint64, n),
		decision:  make([]uint64, n),
		halted:    make([]uint64, n),
	}
	for i := 0; i < n && i < len(inputs); i++ {
		if inputs[i] {
			f.candidate[i] = all
			f.pending[i] = all
		}
	}
	return f
}

// N implements sim.SlicedSystem.
func (f *SlicedFlooding) N() int { return f.n }

// ScheduleLength returns the protocol's fixed round count.
func (f *SlicedFlooding) ScheduleLength() int { return FloodingRounds(f.t) }

// SlicedSend implements sim.SlicedSystem: the lanes in which the node
// has a pending un-flooded 1 multicast it to everyone.
func (f *SlicedFlooding) SlicedSend(round, node int, active uint64, out []sim.SlicedMsg) ([]sim.SlicedMsg, uint64) {
	if round >= f.ScheduleLength() {
		return out, 0
	}
	m := f.pending[node] &^ f.flooded[node] & active
	if m == 0 {
		return out, 0
	}
	f.pending[node] &^= m
	f.flooded[node] |= m
	for to := 0; to < f.n; to++ {
		if to != node {
			out = append(out, sim.SlicedMsg{From: int32(node), To: int32(to), Lanes: m, Bits: m})
		}
	}
	return out, 0
}

// SlicedDeliver implements sim.SlicedSystem: lanes that receive their
// first 1 adopt it; at round t+1 every active lane decides its
// candidate and halts.
func (f *SlicedFlooding) SlicedDeliver(round, node int, active uint64, inbox []sim.SlicedMsg) uint64 {
	var got uint64
	for i := range inbox {
		got |= inbox[i].Lanes & inbox[i].Bits
	}
	if x := got &^ f.candidate[node] & active; x != 0 {
		f.candidate[node] |= x
		f.pending[node] |= x
	}
	if round == f.ScheduleLength()-1 {
		f.decided[node] |= active
		f.decision[node] = f.decision[node]&^active | f.candidate[node]&active
		f.halted[node] |= active
	}
	return 0
}

// HaltedLanes implements sim.SlicedSystem.
func (f *SlicedFlooding) HaltedLanes(node int) uint64 { return f.halted[node] }

// DecisionLanes returns, for one node, the lanes in which it decided
// and the decided value per lane (valid where decided).
func (f *SlicedFlooding) DecisionLanes(node int) (decided, value uint64) {
	return f.decided[node], f.decision[node]
}

var _ sim.SlicedSystem = (*SlicedFlooding)(nil)
