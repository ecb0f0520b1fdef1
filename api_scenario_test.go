package lineartime

import (
	"strings"
	"testing"
)

// TestScenarioErrorsKeepPublicPrefix pins the API error contract:
// validation errors surfacing from the internal scenario layer must
// carry the package's documented "lineartime:" prefix, not leak the
// internal "scenario:" one.
func TestScenarioErrorsKeepPublicPrefix(t *testing.T) {
	_, err := RunByzantineConsensus(10, 2, make([]uint64, 10), false, WithByzantine(Silence, 99))
	if err == nil {
		t.Fatal("out-of-range corrupted node accepted")
	}
	if !strings.HasPrefix(err.Error(), "lineartime: ") {
		t.Fatalf("error leaked the internal prefix: %v", err)
	}
	// n=0 fails the scenario layer's own validation, so this case is
	// the one that exercises apiErr's prefix rewrite.
	_, err = RunGossip(0, 0, nil, false)
	if err == nil {
		t.Fatal("n=0 accepted")
	}
	if !strings.HasPrefix(err.Error(), "lineartime: ") {
		t.Fatalf("error leaked the internal prefix: %v", err)
	}
	_, err = RunGossip(40, 6, make([]uint64, 40), false,
		WithCrashSchedule(CrashEvent{Node: 99, Round: 1}))
	if err == nil {
		t.Fatal("out-of-range crash schedule accepted")
	}
	if !strings.HasPrefix(err.Error(), "lineartime: ") {
		t.Fatalf("error leaked the internal prefix: %v", err)
	}
}
