package main

import (
	"slices"
	"testing"

	"lineartime/internal/scenario"
)

// recordRun runs Few-Crashes-Consensus at n = 60, t = 12 under the given
// -fault spelling with a recorder installed.
func recordRun(t *testing.T, fault string) (*recorder, *scenario.Report) {
	t.Helper()
	sp := scenario.MustLookup("consensus/few-crashes").Spec(60, 12, 3)
	var err error
	if sp.Fault, err = scenario.ParseFault(fault); err != nil {
		t.Fatal(err)
	}
	rec := &recorder{sent: make([]int64, sp.N)}
	sp.Observer = rec
	r, err := scenario.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	return rec, r
}

func TestRecorderMatchesMetrics(t *testing.T) {
	rec, r := recordRun(t, "none")
	if rec.messages != r.Metrics.Messages {
		t.Fatalf("recorder saw %d messages, metrics %d", rec.messages, r.Metrics.Messages)
	}
	var sent, perRound int64
	for _, c := range rec.sent {
		sent += c
	}
	for _, c := range rec.perRound {
		perRound += c
	}
	if sent != rec.messages || perRound != rec.messages {
		t.Fatalf("per-node sends %d and per-round counts %d, total %d", sent, perRound, rec.messages)
	}
}

// TestRecorderCrashTimeline: the crashes come in the order the engine
// applied them, round by round, not sorted as strings.
func TestRecorderCrashTimeline(t *testing.T) {
	rec, r := recordRun(t, "crash-schedule:events=15@4/1;5@2/0;9@4/1")
	if want := []string{"5@r2", "9@r4", "15@r4"}; !slices.Equal(rec.crashes, want) {
		t.Fatalf("crash timeline %v, want %v", rec.crashes, want)
	}
	if len(r.Crashed) != 3 {
		t.Fatalf("report lists %d crashed nodes, want 3", len(r.Crashed))
	}
}

// TestRecorderAnalytics: the profile buckets the whole run, rounds
// without traffic included, into spans that differ by at most one
// round, and busiest takes the first of equal counts.
func TestRecorderAnalytics(t *testing.T) {
	rec := &recorder{perRound: []int64{1, 2, 3, 4, 5, 6, 7}}
	if got, want := rec.profile(4, 10), []int64{6, 9, 13, 0}; !slices.Equal(got, want) {
		t.Fatalf("profile(4, 10) = %v, want %v", got, want)
	}
	if got, want := rec.profile(10, 7), []int64{1, 2, 3, 0, 4, 5, 0, 6, 7, 0}; !slices.Equal(got, want) {
		t.Fatalf("profile(10, 7) = %v, want %v", got, want)
	}
	if at, most := busiest([]int64{0, 4, 2, 4}); at != 1 || most != 4 {
		t.Fatalf("busiest = (%d, %d), want (1, 4)", at, most)
	}
	if at, most := busiest(nil); at != 0 || most != 0 {
		t.Fatalf("busiest(nil) = (%d, %d), want (0, 0)", at, most)
	}
}

func TestRecorderQuietNodes(t *testing.T) {
	// A node crashed in round 0 with nothing delivered never sends.
	rec, _ := recordRun(t, "crash-schedule:events=3@0/0")
	if rec.sent[3] != 0 {
		t.Fatalf("node 3, crashed before its first send, sent %d", rec.sent[3])
	}
}
