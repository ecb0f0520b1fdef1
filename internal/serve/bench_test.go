package serve

import (
	"testing"
	"time"

	"lineartime/internal/obs"
	"lineartime/internal/scenario"
)

// heavySeed is the next seed BenchmarkHeavyRequest draws. Overlays are
// cached process-wide and the measurement is of requests that find
// nothing there, so it starts away from every seed the package's tests
// use and never repeats, across -count reruns included.
var heavySeed uint64 = 0x5eed_0000_0000

// BenchmarkHeavyRequest is the daemon's work for one `serve-heavy`
// request of the repository benchmark (gossip/expander n=128 t=24, a
// seed nobody has asked for before) without the daemon: the run plus
// the response encoding, which is everything a cache miss pays outside
// net/http.
func BenchmarkHeavyRequest(b *testing.B) {
	b.ReportAllocs()
	var bytes int
	rounds := &roundCount{}
	for b.Loop() {
		bytes = heavyRequest(b, rounds)
	}
	b.ReportMetric(float64(bytes), "body-bytes")
	b.ReportMetric(float64(rounds.executed)/float64(b.N), "executed-rounds/op")
}

// TestHeavyRequestAllocs guards BenchmarkHeavyRequest's work: a
// fresh-seed serve-heavy run plus its encoding cost 3,696 allocations
// before the run cut its machines, sets and snapshots from the pooled
// run slab, and 249 after; the ceiling is 10 % of the former. It is a
// mean over 20 requests, so it also pays for the pools' regrowth after
// a collection (and, under -race, after sync.Pool's random drops).
func TestHeavyRequestAllocs(t *testing.T) {
	const maxAllocs = 369
	heavyRequest(t, nil) // grows the pooled engine arena and run slab
	allocs := testing.AllocsPerRun(20, func() { heavyRequest(t, nil) })
	t.Logf("heavy request: %.0f allocs", allocs)
	if allocs > maxAllocs {
		t.Fatalf("a heavy request costs %.0f allocs, ceiling %d", allocs, maxAllocs)
	}
}

// heavyRequest runs and encodes one serve-heavy request on the next
// heavy seed, with the given tracer if any, and returns the body's
// length.
func heavyRequest(tb testing.TB, tr obs.RunTracer) int {
	d, ok := scenario.Lookup("gossip/expander")
	if !ok {
		tb.Fatal("gossip/expander is not registered")
	}
	heavySeed++
	sp := d.Spec(128, 24, heavySeed)
	sp.Tracer = tr
	rep, err := scenario.Run(sp)
	if err != nil {
		tb.Fatal(err)
	}
	body, err := EncodeRunResponse(sp.Key(), rep)
	if err != nil {
		tb.Fatal(err)
	}
	return len(body)
}

// roundCount is a RunTracer that sums the rounds the engine stepped.
type roundCount struct{ executed int }

func (*roundCount) StageDuration(obs.Stage, time.Duration) {}

func (*roundCount) RunDone(obs.Engine, obs.Outcome, int, time.Duration) {}

func (c *roundCount) RoundsExecuted(executed, _, _ int) { c.executed += executed }
