package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the cumulative bucket semantics:
// a value equal to a bound lands in that bound's bucket (le is
// inclusive), and values above the last bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0001, 2, 4, 4.0001, 100} {
		h.Observe(v)
	}
	want := []int64{2, 2, 1, 2} // (<=1)=2, (1,2]=2, (2,4]=1, +Inf=2
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if sum := h.Sum(); sum < 112.5001 || sum > 112.501 {
		t.Errorf("sum = %g, want ~112.5002", sum)
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing bounds accepted")
		}
	}()
	NewHistogram([]float64{1, 1})
}

// TestCounterConcurrent hammers one counter and one gauge from many
// goroutines; run under -race this doubles as the data-race guard.
func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("lineartime_test_total", "test counter")
	g := reg.Gauge("lineartime_test_gauge", "test gauge")
	h := reg.Histogram("lineartime_test_seconds", "test histogram", LatencyBuckets())
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(1)
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != 1 {
		t.Errorf("gauge = %g, want 1", g.Value())
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}

func TestCounterIgnoresNegativeAdd(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
}

// TestWriteTextGolden pins the exposition format end to end: HELP and
// TYPE lines, family ordering by name, child ordering by label
// signature, histogram expansion, and label escaping.
func TestWriteTextGolden(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("lineartime_zeta_total", "Last family by name.")
	c.Add(3)
	reg.Gauge("lineartime_alpha_gauge", "First family by name.").Set(2.5)
	b := reg.Counter("lineartime_beta_total", "Labeled counter.", L{"path", "/v1/run"}, L{"code", "2xx"})
	b.Inc()
	reg.Counter("lineartime_beta_total", "Labeled counter.", L{"path", "/v1/run"}, L{"code", "5xx"})
	h := reg.Histogram("lineartime_gamma_seconds", "Histogram family.", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(9)
	reg.GaugeFunc("lineartime_delta_gauge", `Escaped "label" value.`, func() float64 { return 1 },
		L{"name", `quo"te\slash`})

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP lineartime_alpha_gauge First family by name.
# TYPE lineartime_alpha_gauge gauge
lineartime_alpha_gauge 2.5
# HELP lineartime_beta_total Labeled counter.
# TYPE lineartime_beta_total counter
lineartime_beta_total{code="2xx",path="/v1/run"} 1
lineartime_beta_total{code="5xx",path="/v1/run"} 0
# HELP lineartime_delta_gauge Escaped "label" value.
# TYPE lineartime_delta_gauge gauge
lineartime_delta_gauge{name="quo\"te\\slash"} 1
# HELP lineartime_gamma_seconds Histogram family.
# TYPE lineartime_gamma_seconds histogram
lineartime_gamma_seconds_bucket{le="0.5"} 1
lineartime_gamma_seconds_bucket{le="1"} 2
lineartime_gamma_seconds_bucket{le="+Inf"} 3
lineartime_gamma_seconds_sum 10
lineartime_gamma_seconds_count 3
# HELP lineartime_zeta_total Last family by name.
# TYPE lineartime_zeta_total counter
lineartime_zeta_total 3
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestDurationCounterFunc: a counter of elapsed time reads its fn at
// exposition, renders fractional seconds in /metrics, and Value reports
// the same seconds.
func TestDurationCounterFunc(t *testing.T) {
	reg := NewRegistry()
	total := 1500 * time.Millisecond
	reg.DurationCounterFunc("lineartime_work_seconds_total", "Seconds of work.", func() time.Duration { return total })
	total += 250 * time.Millisecond

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP lineartime_work_seconds_total Seconds of work.
# TYPE lineartime_work_seconds_total counter
lineartime_work_seconds_total 1.75
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if v, ok := reg.Value("lineartime_work_seconds_total"); !ok || v != 1.75 {
		t.Errorf("value = %g, %v", v, ok)
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	reg := NewRegistry()
	reg.Counter("lineartime_ok_total", "ok")
	mustPanic("bad name", func() { reg.Counter("1bad-name", "x") })
	mustPanic("bad label", func() { reg.Counter("lineartime_l_total", "x", L{"__internal", "v"}) })
	mustPanic("duplicate", func() { reg.Counter("lineartime_ok_total", "ok") })
	mustPanic("kind clash", func() { reg.Gauge("lineartime_ok_total", "ok") })
}

func TestRegistryValue(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("lineartime_v_total", "v", L{"k", "a"}).Add(7)
	reg.GaugeFunc("lineartime_v_gauge", "v", func() float64 { return 1.5 })
	h := reg.Histogram("lineartime_v_seconds", "v", []float64{1})
	h.Observe(0.5)
	h.Observe(0.5)

	if v, ok := reg.Value("lineartime_v_total", L{"k", "a"}); !ok || v != 7 {
		t.Errorf("counter value = %g, %v", v, ok)
	}
	if v, ok := reg.Value("lineartime_v_gauge"); !ok || v != 1.5 {
		t.Errorf("gauge value = %g, %v", v, ok)
	}
	if v, ok := reg.Value("lineartime_v_seconds"); !ok || v != 2 {
		t.Errorf("histogram value = %g, %v", v, ok)
	}
	if _, ok := reg.Value("lineartime_missing"); ok {
		t.Error("missing metric resolved")
	}
	if _, ok := reg.Value("lineartime_v_total", L{"k", "b"}); ok {
		t.Error("missing label child resolved")
	}
}

// TestEngineTracer drives the metrics-backed tracer and checks the
// registered families observe what was reported.
func TestEngineTracer(t *testing.T) {
	reg := NewRegistry()
	tr := NewEngineTracer(reg)
	tr.StageDuration(StageMaterialize, 5*time.Millisecond)
	tr.StageDuration(StageSetup, 2*time.Millisecond)
	tr.StageDuration(StageRounds, 10*time.Millisecond)
	tr.RunDone(EngineSliced, OutcomeOK, 12, 15*time.Millisecond)
	tr.RunDone(EngineSequential, OutcomeNoTermination, 64, time.Millisecond)
	tr.RoundsExecuted(14, 30, 20)
	tr.RoundsExecuted(30, 0, 0)

	for state, want := range map[string]float64{"executed": 44, "quiet": 30, "repeated": 20} {
		if v, ok := reg.Value("lineartime_engine_rounds_total", L{"state", state}); !ok || v != want {
			t.Errorf("%s rounds = %g, %v, want %g", state, v, ok, want)
		}
	}
	if v, ok := reg.Value("lineartime_runs_total",
		L{"engine", "sliced"}, L{"outcome", "ok"}); !ok || v != 1 {
		t.Errorf("sliced ok runs = %g, %v", v, ok)
	}
	if v, ok := reg.Value("lineartime_runs_total",
		L{"engine", "sequential"}, L{"outcome", "no_termination"}); !ok || v != 1 {
		t.Errorf("sequential no_termination runs = %g, %v", v, ok)
	}
	if v, ok := reg.Value("lineartime_run_rounds"); !ok || v != 2 {
		t.Errorf("rounds observations = %g, %v", v, ok)
	}
	if v, ok := reg.Value("lineartime_run_stage_duration_seconds",
		L{"stage", "setup"}); !ok || v != 1 {
		t.Errorf("setup stage observations = %g, %v", v, ok)
	}
	// The scenario layer's materialization is its own pre-registered
	// stage, not a second observation under the engine's "setup".
	if v, ok := reg.Value("lineartime_run_stage_duration_seconds",
		L{"stage", "materialize"}); !ok || v != 1 {
		t.Errorf("materialize stage observations = %g, %v", v, ok)
	}
}

// TestSpanTracer checks the CLI trace collector.
func TestSpanTracer(t *testing.T) {
	tr := NewSpanTracer()
	tr.StageDuration(StageSetup, time.Millisecond)
	tr.StageDuration(StageRounds, 2*time.Millisecond)
	tr.RunDone(EngineSequential, OutcomeOK, 9, 3*time.Millisecond)
	tr.RoundsExecuted(4, 2, 3)
	tc := tr.Trace()
	if tc.Engine != "sequential" || tc.Outcome != "ok" || tc.Rounds != 9 || tc.RoundsExecuted != 4 || tc.RoundsRepeated != 3 {
		t.Errorf("trace header = %+v", tc)
	}
	if len(tc.Spans) != 2 || tc.Spans[0].Name != "setup" || tc.Spans[1].Name != "rounds" {
		t.Errorf("spans = %+v", tc.Spans)
	}
	if tc.DurationMS != 3 {
		t.Errorf("duration = %g ms, want 3", tc.DurationMS)
	}
}

// TestEnumStrings keeps the label vocabulary stable — these strings
// are metric label values and part of the scrape contract.
func TestEnumStrings(t *testing.T) {
	if StageSetup.String() != "setup" || StageMaterialize.String() != "materialize" ||
		StageDecode.String() != "decode" || StageMerge.String() != "merge" {
		t.Error("stage labels changed")
	}
	if EngineSequential.String() != "sequential" ||
		EngineSliced.String() != "sliced" || numEngines.String() != "unknown" {
		t.Error("engine labels changed")
	}
	if OutcomeError.String() != "error" {
		t.Error("outcome labels changed")
	}
	if Stage(200).String() != "unknown" || Engine(200).String() != "unknown" || Outcome(200).String() != "unknown" {
		t.Error("out-of-range enums must stringify as unknown")
	}
}
