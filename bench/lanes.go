package main

import (
	"reflect"
	"time"

	"lineartime/internal/scenario"
)

// lanesVerifyEvery is the sampling stride of the scalar-parity check:
// two lanes of one ExecuteBatch call in this many are kept and compared
// with scalar scenario.Run between timed windows. Checking two lanes
// of every call would cost two scalar runs (≈2 × 300 ms) per ≈600 ms
// call; at this stride the check stays under a tenth of the run.
const lanesVerifyEvery = 16

// lanesTarget runs the batch-lanes workload in-process: the program
// under test is the library, called from this process.
type lanesTarget struct {
	w    *workload
	seed uint64

	failureLog
	sampled []sampledLane
}

type sampledLane struct {
	call, lane int
	spec       scenario.Spec
	report     *scenario.Report
}

// do runs ExecuteBatch call i. One op is one simulation, so a call
// completes lanesPerCall ops and every lane with an error or without a
// report is a failed op; the latency is the call's.
func (t *lanesTarget) do(i int) outcome {
	sps, err := t.w.batch(t.seed, i)
	if err != nil {
		t.note("call %d: generate: %v", i, err)
		return outcome{ops: lanesPerCall, failed: lanesPerCall}
	}
	start := time.Now()
	reports, errs := scenario.ExecuteBatch(sps)
	out := outcome{latency: time.Since(start), ops: len(sps)}
	for l := range sps {
		switch {
		case errs[l] != nil:
			t.note("call %d lane %d: %v", i, l, errs[l])
			out.failed++
		case reports[l] == nil || reports[l].N != sps[l].N || reports[l].Metrics.Rounds <= 0:
			t.note("call %d lane %d: malformed report", i, l)
			out.failed++
		}
	}
	if i%lanesVerifyEvery == 0 {
		// Two distinct lanes of the call, drawn from the seed.
		draw := mix(t.seed, streamLanesSample, uint64(i))
		a := int(draw % lanesPerCall)
		b := (a + 1 + int((draw>>32)%(lanesPerCall-1))) % lanesPerCall
		t.mu.Lock()
		for _, l := range []int{a, b} {
			t.sampled = append(t.sampled, sampledLane{call: i, lane: l, spec: sps[l], report: reports[l]})
		}
		t.mu.Unlock()
	}
	return out
}

// verify compares the lanes sampled since the last call with scalar
// scenario.Run and counts the ones that are not deeply equal.
func (t *lanesTarget) verify() (failed int) {
	t.mu.Lock()
	sampled := t.sampled
	t.sampled = nil
	t.mu.Unlock()
	for _, s := range sampled {
		want, err := scenario.Run(s.spec)
		if err != nil || !reflect.DeepEqual(s.report, want) {
			t.note("call %d lane %d: sliced report differs from scalar scenario.Run (err=%v)", s.call, s.lane, err)
			failed++
		}
	}
	return failed
}
