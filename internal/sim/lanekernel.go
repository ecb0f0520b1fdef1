package sim

import (
	"math/bits"
	"slices"

	"lineartime/internal/bitset"
)

// Lane kernels: the word-wide form of the declarative link filters.
// The sliced engine's per-lane filter loop asks one FilterLink question
// per lane per word message — the per-seed work slicing exists to
// remove. A filter whose verdict is a closed-form function of
// (round, from, to) can instead declare that form (KernelFilter), and
// the engine compiles the ≤ 64 per-lane declarations into at most three
// kernels that answer for all of their lanes at once:
//
//   - partition: per round, one mask of lanes whose window is open per
//     distinct cut, so a message costs one compare per open cut;
//   - omission: the link hash's key once per message, then one
//     finish-and-compare per lane over a dense seed/threshold array;
//   - delay: the same key, k = hash % (d+1) accumulated branch-free into
//     per-k lane masks (k != 0 is a coin flip, so a branch mispredicts
//     half the time).
//
// The omission, d = 1 and d = 2 lanes — every hashed lane the runner's
// link faults declare but d ≥ 3 — sit in one hashTable. On CPUs with
// AVX-512 and BMI2 (bitset.HasVector) one call of linkHashAVX512
// (lanehash_amd64.s) finishes 8 of their hashes per instruction and
// deposits the compact verdict masks back onto lane bits with PDEP;
// hashTable.verdicts is the same computation one lane at a time, the
// only path elsewhere and the kernel's test oracle.
//
// LinkHashKey/LinkHashFinish are the single definition of that hash:
// internal/link's scalar FilterLink verdicts and the kernels both call
// them, and the differential tests pin the two against each other.

// The link hash's odd multipliers (splitmix64's increment and finalizer
// constants).
const (
	linkHashRound = 0x9e3779b97f4a7c15
	linkHashFrom  = 0xbf58476d1ce4e5b9
	linkHashTo    = 0x94d049bb133111eb
)

// LinkHashKey folds a link's coordinates into the seed-independent half
// of the link hash. The hash of (seed, round, from, to) is
// LinkHashFinish(seed ^ LinkHashKey(round, from, to)): the key is
// shared by every lane of a word message, only the finish is per seed.
func LinkHashKey(round int, from, to NodeID) uint64 {
	return uint64(round)*linkHashRound ^ uint64(from)*linkHashFrom ^ uint64(to)*linkHashTo
}

// LinkHashFinish is the splitmix64-style finalizer of the link hash.
func LinkHashFinish(x uint64) uint64 {
	x ^= x >> 30
	x *= linkHashFrom
	x ^= x >> 27
	x *= linkHashTo
	x ^= x >> 31
	return x
}

// LinkKernelKind names a closed-form link filter family.
type LinkKernelKind uint8

// The kernel families. With h = LinkHashFinish(Seed ^ LinkHashKey(round,
// from, to)):
const (
	// KernelOmission drops the envelope iff h < Threshold.
	KernelOmission LinkKernelKind = iota + 1
	// KernelDelay delivers the envelope h % (Delay+1) rounds late.
	KernelDelay
	// KernelPartition drops the envelope iff Start <= round < End and
	// exactly one of from, to is below Cut.
	KernelPartition
)

// LinkKernel is a link filter's verdict function in declarative form;
// only the fields of its Kind are read.
type LinkKernel struct {
	Kind            LinkKernelKind
	Seed            uint64
	Threshold       uint64
	Delay           int
	Start, End, Cut int
}

// KernelFilter is implemented by link filters whose FilterLink is
// exactly one of the kernel families — the link-level counterpart of
// CrashPlan. The sliced engine batches such lanes into word kernels and
// never calls their FilterLink; filters that don't implement it (or
// declare something the engine does not recognise) keep the per-lane
// FilterLink loop. A declared Delay must not exceed MaxDelay.
type KernelFilter interface {
	LinkFilter
	LinkKernel() LinkKernel
}

// hashLane is one d ≥ 3 delay lane: its seed, its bit, and its delay
// modulus d+1.
type hashLane struct {
	seed, arg, bit uint64
}

// hashTable is the omission, d = 1 and d = 2 delay lanes in the layout
// linkHashAVX512 reads: per family the seeds (and omission thresholds)
// in ascending lane order, and the family's lane mask, whose i-th set
// bit from the bottom is entry i's lane. The arrays hold MaxLanes
// entries, a multiple of 8, so the kernel loads whole groups of 8 past
// a family's count; the stale entries there yield verdict bits at or
// above the mask's popcount, which PDEP discards. The portable loops
// read each entry's lane bit from the *Bit arrays instead.
type hashTable struct {
	omitSeed, omitThr, omitBit [MaxLanes]uint64 // omission: drop iff h < threshold
	oddSeed, oddBit            [MaxLanes]uint64 // d = 1: late by h & 1
	mod3Seed, mod3Bit          [MaxLanes]uint64 // d = 2: late by h % 3
	omitN, oddN, mod3N         int
	omitLanes                  uint64
	oddLanes                   uint64
	mod3Lanes                  uint64
}

// verdicts is linkHashAVX512 one lane at a time: the lanes among the
// table's that drop the message with link-hash key, and those that
// delay it by 1 and by 2 rounds.
func (t *hashTable) verdicts(key uint64) (drop, k1, k2 uint64) {
	for i, seed := range t.omitSeed[:t.omitN] {
		_, below := bits.Sub64(LinkHashFinish(seed^key), t.omitThr[i], 0)
		drop |= t.omitBit[i] & -below
	}
	for i, seed := range t.oddSeed[:t.oddN] {
		k1 |= t.oddBit[i] & -(LinkHashFinish(seed^key) & 1)
	}
	for i, seed := range t.mod3Seed[:t.mod3N] {
		d := LinkHashFinish(seed^key) % 3
		k1 |= t.mod3Bit[i] & -(d & 1)
		k2 |= t.mod3Bit[i] & -(d >> 1)
	}
	return drop, k1, k2
}

// partLane is one partition lane: drop across cut during [start, end).
type partLane struct {
	cut, start, end int
	bit             uint64
}

// cutMask is the lanes whose partition window is open this round, for
// one cut.
type cutMask struct {
	cut  int
	open uint64
}

// laneKernels is the compiled form of a run's declared link filters.
// All buffers are recycled across runs.
type laneKernels struct {
	lanes  uint64 // lanes answered by a kernel
	hashed uint64 // lanes whose verdict hashes the link
	vector bool   // run linkHashAVX512, not hash.verdicts

	parts  []partLane
	open   []cutMask // rebuilt by beginRound: open windows only
	hash   hashTable
	delayN []hashLane // d >= 3
	lanesN uint64     // lanes of delayN
}

// reset empties the kernels and picks the hash path for the run.
func (k *laneKernels) reset() {
	k.lanes, k.hashed, k.lanesN = 0, 0, 0
	k.vector = bitset.HasVector
	k.parts, k.open, k.delayN = k.parts[:0], k.open[:0], k.delayN[:0]
	t := &k.hash
	t.omitN, t.oddN, t.mod3N = 0, 0, 0
	t.omitLanes, t.oddLanes, t.mod3Lanes = 0, 0, 0
}

// add compiles lane's declaration, whose filter bounds delays by
// maxDelay; lanes are added in ascending order, which keeps each hash
// family's entries in its mask's bit order. It reports false for a
// declaration the kernels cannot honour; the lane then stays on the
// per-lane FilterLink loop. Lanes whose declaration can never act
// (rate 0, d = 0, an empty window) are answered by the kernels at no
// per-message cost.
func (k *laneKernels) add(lane int, d LinkKernel, maxDelay int) bool {
	bit := uint64(1) << lane
	if k.lanes >= bit {
		panic("sim: lane kernels compiled out of lane order")
	}
	t := &k.hash
	switch d.Kind {
	case KernelOmission:
		if d.Threshold != 0 {
			t.omitSeed[t.omitN], t.omitThr[t.omitN], t.omitBit[t.omitN] = d.Seed, d.Threshold, bit
			t.omitN++
			t.omitLanes |= bit
		}
	case KernelDelay:
		switch {
		case d.Delay < 0 || d.Delay > maxDelay:
			return false
		case d.Delay == 0:
		case d.Delay == 1:
			t.oddSeed[t.oddN], t.oddBit[t.oddN] = d.Seed, bit
			t.oddN++
			t.oddLanes |= bit
		case d.Delay == 2:
			t.mod3Seed[t.mod3N], t.mod3Bit[t.mod3N] = d.Seed, bit
			t.mod3N++
			t.mod3Lanes |= bit
		default:
			k.delayN = append(k.delayN, hashLane{seed: d.Seed, arg: uint64(d.Delay) + 1, bit: bit})
			k.lanesN |= bit
		}
	case KernelPartition:
		if d.Start < d.End {
			k.parts = append(k.parts, partLane{cut: d.Cut, start: d.Start, end: d.End, bit: bit})
		}
	default:
		return false
	}
	k.lanes |= bit
	k.hashed = t.omitLanes | t.oddLanes | t.mod3Lanes | k.lanesN
	return true
}

// beginRound rebuilds the open-window masks for round r: one entry per
// distinct cut with at least one lane inside its window.
func (k *laneKernels) beginRound(r int) {
	k.open = k.open[:0]
	for _, p := range k.parts {
		if r < p.start || r >= p.end {
			continue
		}
		i := slices.IndexFunc(k.open, func(c cutMask) bool { return c.cut == p.cut })
		if i < 0 {
			i = len(k.open)
			k.open = append(k.open, cutMask{cut: p.cut})
		}
		k.open[i].open |= p.bit
	}
}

// split classifies the round-r message from → to, which exists in the
// lanes `in`, for every kernel lane at once: it returns the lanes that
// drop it and the lanes that delay it, and ORs the lanes delaying it by
// k into byK[k] (len(byK) must exceed every declared Delay; byK[0] is
// scratch). Every mask is confined to `in`.
func (k *laneKernels) split(r int, from, to int32, in uint64, byK []uint64) (drop, late uint64) {
	for _, c := range k.open {
		if (int(from) < c.cut) != (int(to) < c.cut) {
			drop |= c.open
		}
	}
	if k.hashed == 0 {
		return drop & in, 0
	}
	key := LinkHashKey(r, NodeID(from), NodeID(to))
	var omit, k1, k2 uint64
	if k.vector {
		omit, k1, k2 = linkHashAVX512(&k.hash, key)
	} else {
		omit, k1, k2 = k.hash.verdicts(key)
	}
	drop |= omit
	k1 &= in
	k2 &= in
	late = k1 | k2
	// byK is only as long as the run's largest delay bound: a slot is
	// written only when a lane that declared it exists.
	if k1 != 0 {
		byK[1] |= k1
	}
	if k2 != 0 {
		byK[2] |= k2
	}
	if lanesN := k.lanesN & in; lanesN != 0 {
		byK[0] = 0
		for _, l := range k.delayN {
			byK[LinkHashFinish(l.seed^key)%l.arg] |= l.bit & in
		}
		late |= lanesN &^ byK[0]
	}
	return drop & in, late
}
