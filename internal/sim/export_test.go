package sim

// LaneKernelSplit compiles the declared kernels among the per-lane
// filters exactly as slicedState.reset does and classifies one message
// with them, for the external differential tests (they need
// internal/link, which imports this package). It returns the lanes a
// kernel answers for, and for those lanes the drop mask and the lanes
// delayed by k in byK[k], k >= 1.
func LaneKernelSplit(filters []LinkFilter, round int, from, to int32, in uint64) (kernel, drop uint64, byK []uint64) {
	var k laneKernels
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
