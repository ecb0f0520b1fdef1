package scenario

import (
	"fmt"
	"runtime"
	"testing"
)

// linkFaultBatch builds one ExecuteBatch call of the batch-lanes shape:
// `lanes` gossip/expander n=192 t=36 specs sharing the topology seed,
// each under its own link fault cycling omission (1–5 %), delay (d ≤ 2)
// and a partition window — the three families the sliced engine
// compiles into lane kernels.
func linkFaultBatch(tb testing.TB, seed uint64, lanes int) []Spec {
	tb.Helper()
	d, ok := Lookup("gossip/expander")
	if !ok {
		tb.Fatal("gossip/expander not registered")
	}
	sps := make([]Spec, lanes)
	for l := range sps {
		sp := d.Spec(192, 36, seed)
		var fault string
		switch l % 3 {
		case 0:
			fault = fmt.Sprintf("omission:rate=0.0%d,seed=%d", 1+l%5, 7000+l)
		case 1:
			fault = fmt.Sprintf("delay:d=%d,seed=%d", 1+l/3%2, 8000+l)
		default:
			from := 1 + l%4
			fault = fmt.Sprintf("partition:from=%d,to=%d", from, from+1+l/3%4)
		}
		f, err := ParseFault(fault)
		if err != nil {
			tb.Fatal(err)
		}
		sp.Fault = f
		sps[l] = sp
	}
	return sps
}

// TestGossipBatchAllocs guards the faulted sliced gossip path one floor
// above the engine guards: one 64-lane gossip/expander n=192 t=36
// ExecuteBatch call under mixed omission/delay/partition lanes, over
// overlays the cache already holds (their builds are TestRunWarmAllocs'
// and TestGossipRunAllocs' business, and vary several MB with the
// seed). What is left is the machine's planes and version tables, the
// engine arena's growth, and the 64 reports. When every surviving node
// of a lane got its own n-entry view map that cost 50,536 allocs /
// 63.6 MB; with equal views sharing one map it measured 1,949 allocs /
// 4.31 MB when the guard was set — 2,024 / 5.50 MB when the pooled
// engine arena is re-grown once within the five calls (sync.Pool hands
// a Runtime back only to the P that put it). With the lane views decoded
// from one transposed buffer per chunk (0.29 MB, in place of a member
// set per lane) it measures 1,825 allocs / 4.60 MB, 1,899 / 5.79 MB
// with the regrowth. The alloc ceiling is 1.25× the larger count; the
// byte ceiling stays where 1.25 × 5.50 MB put it, 1.19× the larger size
// (it is skipped under -race, like TestRunWarmAllocs).
func TestGossipBatchAllocs(t *testing.T) {
	const (
		maxAllocs = 2380
		maxBytes  = 6_900_000
	)
	sps := linkFaultBatch(t, 0x6a55_0000, 64)
	run := func() {
		_, errs := ExecuteBatch(sps)
		for l, err := range errs {
			if err != nil {
				t.Fatalf("lane %d: %v", l, err)
			}
		}
	}
	// First sight builds the overlays, second sight admits them, and
	// both grow the pooled engine arena.
	run()
	run()

	const calls = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / calls
	bytes := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("64-lane link-fault gossip batch: %d allocs, %d bytes", allocs, bytes)
	if allocs > maxAllocs || (bytes > maxBytes && !raceEnabled) {
		t.Fatalf("64-lane link-fault gossip batch costs %d allocs / %d bytes, ceilings %d / %d", allocs, bytes, maxAllocs, maxBytes)
	}
}

// BenchmarkGossipBatchLinkFaults times the same call.
func BenchmarkGossipBatchLinkFaults(b *testing.B) {
	sps := linkFaultBatch(b, 0x6a55_1000, 64)
	ExecuteBatch(sps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, errs := ExecuteBatch(sps); errs[0] != nil {
			b.Fatal(errs[0])
		}
	}
}
