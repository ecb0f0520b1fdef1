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
	d, ok := scenario.Lookup("gossip/expander")
	if !ok {
		b.Fatal("gossip/expander is not registered")
	}
	b.ReportAllocs()
	var bytes int
	rounds := &roundCount{}
	for b.Loop() {
		heavySeed++
		sp := d.Spec(128, 24, heavySeed)
		sp.Tracer = rounds
		rep, err := scenario.Run(sp)
		if err != nil {
			b.Fatal(err)
		}
		body, err := EncodeRunResponse(sp.Key(), rep)
		if err != nil {
			b.Fatal(err)
		}
		bytes = len(body)
	}
	b.ReportMetric(float64(bytes), "body-bytes")
	b.ReportMetric(float64(rounds.executed)/float64(b.N), "executed-rounds/op")
}

// roundCount is a RunTracer that sums the rounds the engine stepped.
type roundCount struct{ executed int }

func (*roundCount) StageDuration(obs.Stage, time.Duration) {}

func (*roundCount) RunDone(obs.Engine, obs.Outcome, int, time.Duration) {}

func (c *roundCount) RoundsExecuted(executed, _, _ int) { c.executed += executed }
