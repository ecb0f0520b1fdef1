package simtest

import (
	"testing"

	"lineartime/internal/bitset"
)

// vectorDetected is bitset.HasVector as detected at init, before any
// test writes it.
var vectorDetected = bitset.HasVector

// KernelPaths returns the settings of bitset.HasVector a differential
// test runs the sliced engine under: false, the portable Go loops, and
// true, the vector kernels, where this CPU has them. The test sets
// bitset.HasVector to each in turn; its cleanup restores the detected
// value. Tests that call it must not run in parallel.
func KernelPaths(tb testing.TB) []bool {
	tb.Helper()
	tb.Cleanup(func() { bitset.HasVector = vectorDetected })
	if vectorDetected {
		return []bool{false, true}
	}
	tb.Log("no AVX-512 F/DQ/VL + BMI2: only the portable loops run")
	return []bool{false}
}
