package sim

import "lineartime/internal/bitset"

// vectorDetected is bitset.HasVector as detected, before any test
// clears it.
var vectorDetected = bitset.HasVector

// KernelPaths is the lane-kernel paths this CPU runs, as the vector
// argument of LaneKernelSplit and HashVerdicts takes them: the portable
// Go loops (false) and, where AVX-512 and BMI2 were detected, the
// vector kernel (true).
func KernelPaths() []bool {
	if vectorDetected {
		return []bool{false, true}
	}
	return []bool{false}
}

// LaneKernelSplit compiles the declared kernels among the per-lane
// filters exactly as slicedState.reset does and classifies one message
// with them — on the portable loops or (vector, where detected) the
// vector kernel — for the external differential tests (they need
// internal/link, which imports this package). It returns the lanes a
// kernel answers for, and for those lanes the drop mask and the lanes
// delayed by k in byK[k], k >= 1.
func LaneKernelSplit(filters []LinkFilter, round int, from, to int32, in uint64, vector bool) (kernel, drop uint64, byK []uint64) {
	var k laneKernels
	k.reset()
	k.vector = vector && vectorDetected
	maxDelay := 0
	for lane, f := range filters {
		if f == nil {
			continue
		}
		d := f.MaxDelay()
		maxDelay = max(maxDelay, d)
		if kf, ok := f.(KernelFilter); ok {
			k.add(lane, kf.LinkKernel(), d)
		}
	}
	k.beginRound(round)
	byK = make([]uint64, maxDelay+1)
	drop, late := k.split(round, from, to, in, byK)
	byK[0] = 0
	var delayed uint64
	for _, l := range byK {
		delayed |= l
	}
	if delayed != late {
		panic("sim: split's late mask is not the union of its per-k masks")
	}
	return k.lanes, drop, byK
}

// HashVerdicts compiles decls — lane i's declaration, lanes of Kind 0
// skipped — and returns the hash table's verdicts for link-hash key on
// the chosen path: the lanes dropping the message and those delaying
// it by 1 and by 2 rounds. Delays above 2 are rejected.
func HashVerdicts(decls []LinkKernel, key uint64, vector bool) (drop, k1, k2 uint64) {
	var k laneKernels
	k.reset()
	for lane, d := range decls {
		if d.Kind != 0 && !k.add(lane, d, 2) {
			panic("sim: HashVerdicts declaration rejected")
		}
	}
	if vector && vectorDetected {
		return linkHashAVX512(&k.hash, key)
	}
	return k.hash.verdicts(key)
}
