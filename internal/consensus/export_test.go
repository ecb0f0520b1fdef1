package consensus

import "lineartime/internal/expander"

// StubBroadcastGraph makes every Topology built from now on construct
// its graph H with build, until the returned function restores the real
// constructor.
func StubBroadcastGraph(build func(n int, seed uint64) (*expander.Overlay, error)) (restore func()) {
	real := newBroadcastGraph
	newBroadcastGraph = build
	return func() { newBroadcastGraph = real }
}
