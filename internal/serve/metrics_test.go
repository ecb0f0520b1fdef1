package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"lineartime/internal/obs"
)

// TestMetricsExposition drives one miss and one hit through /v1/run and
// asserts the Prometheus exposition reflects them: the serve families
// (requests, latency), the component families (cache, queue), and the
// engine families fed by the tracer installed on every served Spec.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := RunRequest{Scenario: "consensus/few-crashes", N: 60, T: 10, Seed: 1}
	readAll(t, postRun(t, ts.URL, req))
	readAll(t, postRun(t, ts.URL, req))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	text := string(readAll(t, resp))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}

	for _, want := range []string{
		"# TYPE lineartime_requests_total counter",
		"# TYPE lineartime_request_duration_seconds histogram",
		`lineartime_requests_total{code="2xx",path="/v1/run"} 2`,
		`lineartime_cache_hits_total 1`,
		`lineartime_cache_misses_total 1`,
		`lineartime_queue_completed_total 1`,
		`lineartime_runs_total{engine="sequential",outcome="ok"} 1`,
		`lineartime_run_stage_duration_seconds_bucket{stage="rounds",le="+Inf"} 1`,
		`lineartime_run_rounds_count 1`,
		`lineartime_serve_draining 0`,
		"lineartime_uptime_seconds ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Exposition shape: every non-comment line is "name{labels} value"
	// or "name value", and every family has HELP before TYPE.
	var lastHelp, lastType string
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			lastHelp = strings.Fields(line)[2]
		case strings.HasPrefix(line, "# TYPE "):
			lastType = strings.Fields(line)[2]
			if lastHelp != lastType {
				t.Fatalf("TYPE %s not preceded by its HELP (last HELP %s)", lastType, lastHelp)
			}
		case line == "":
			t.Fatal("blank line in exposition")
		default:
			if !strings.Contains(line, " ") {
				t.Fatalf("sample line without value: %q", line)
			}
		}
	}
}

// TestMetricsNamingConvention pins the namespace: every family the
// server registers carries the lineartime_ prefix, so dashboards can
// select the whole surface with one matcher.
func TestMetricsNamingConvention(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	var text strings.Builder
	if err := s.metrics.reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(text.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			names = append(names, strings.Fields(rest)[0])
		}
	}
	if len(names) == 0 {
		t.Fatal("registry has no families")
	}
	have := make(map[string]bool, len(names))
	for _, name := range names {
		have[name] = true
		if !strings.HasPrefix(name, "lineartime_") {
			t.Errorf("family %q lacks the lineartime_ prefix", name)
		}
	}
	// The two caches expose the same six families under their own stem.
	for _, stem := range []string{"lineartime_cache_", "lineartime_overlay_cache_"} {
		for _, suffix := range []string{"hits_total", "misses_total", "evictions_total", "entries", "bytes", "capacity_bytes"} {
			if !have[stem+suffix] {
				t.Errorf("family %s%s not registered", stem, suffix)
			}
		}
	}
	// Beside them, the overlay builds' seconds and seed rotations.
	for _, name := range []string{"lineartime_overlay_build_seconds_total", "lineartime_overlay_seed_rotations_total"} {
		if !have[name] {
			t.Errorf("family %s not registered", name)
		}
	}
	// The Go runtime's counters and the build, read at scrape time.
	for _, name := range []string{"lineartime_go_gc_cycles_total", "lineartime_go_heap_allocs_objects_total", "lineartime_go_heap_allocs_bytes_total", "lineartime_build_info"} {
		if !have[name] {
			t.Errorf("family %s not registered", name)
		}
	}
	// Executed, quiet and repeated rounds are three children of one
	// family: each simulated round is counted once, so their sum is the
	// rounds simulated and no second name can drift from it.
	for _, state := range []string{"executed", "quiet", "repeated"} {
		if _, ok := s.metrics.reg.Value("lineartime_engine_rounds_total", obs.L{Key: "state", Value: state}); !ok {
			t.Errorf("lineartime_engine_rounds_total{state=%q} not registered", state)
		}
	}
}

// TestRuntimeCountersPerRequest reads what a fresh-seed gossip request
// (the serve-heavy shape: gossip/expander n=128 t=24, a seed nobody
// asked for) allocates from the counters /metrics exposes, over
// requests handed straight to the handler so that no HTTP client shares
// the count: fewer than 400 objects each, the whole serving path
// included (decode, key, cache, queue, run, encode), and at least the
// bytes of the response body.
func TestRuntimeCountersPerRequest(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	seed := uint64(0x6055_e000_0000)
	serve := func() {
		seed++
		body := fmt.Sprintf(`{"scenario":"gossip/expander","n":128,"t":24,"seed":%d}`, seed)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /v1/run = %d %s", rec.Code, rec.Body)
		}
	}
	counters := func() (gc, objects, bytes float64) {
		for _, c := range []struct {
			name string
			v    *float64
		}{
			{"lineartime_go_gc_cycles_total", &gc},
			{"lineartime_go_heap_allocs_objects_total", &objects},
			{"lineartime_go_heap_allocs_bytes_total", &bytes},
		} {
			var ok bool
			if *c.v, ok = s.metrics.reg.Value(c.name); !ok {
				t.Fatalf("%s not registered", c.name)
			}
		}
		return gc, objects, bytes
	}
	serve() // grows the pooled engine arena and run slab
	// The runtime counts an allocation when its span leaves a P's cache;
	// a collection flushes every cache, so the counts read after one are
	// exact.
	const requests = 50
	runtime.GC()
	gc0, objects0, bytes0 := counters()
	for i := 0; i < requests; i++ {
		serve()
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc1, objects1, bytes1 := counters()
	objects, bytes := (objects1-objects0)/requests, (bytes1-bytes0)/requests
	t.Logf("%.0f objects, %.0f bytes per fresh gossip request", objects, bytes)
	if objects < 1 || objects >= 400 {
		t.Fatalf("a fresh gossip request allocates %.0f objects, want at least one and fewer than 400", objects)
	}
	if bytes < 136_312 {
		t.Fatalf("a fresh gossip request allocates %.0f bytes, fewer than its 136,312-byte body", bytes)
	}
	if gc1 < gc0+1 || gc1 < float64(ms.NumGC) {
		t.Fatalf("lineartime_go_gc_cycles_total went %v → %v across a forced collection, with %d cycles done", gc0, gc1, ms.NumGC)
	}
	if v, ok := s.metrics.reg.Value("lineartime_build_info", obs.L{Key: "go_version", Value: runtime.Version()}, obs.L{Key: "revision", Value: buildRevision()}); !ok || v != 1 {
		t.Fatalf("lineartime_build_info = %v, %v", v, ok)
	}
}

// TestDrainStateObservable walks the SIGTERM sequence: after BeginDrain
// the liveness body reports the drain (still 200), readiness turns 503
// with a drain-specific message, and the gauges flip.
func TestDrainStateObservable(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.SetReady(true)

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK || string(body) != `{"status":"ready"}` {
		t.Fatalf("readyz before drain = %d %q", resp.StatusCode, body)
	}

	s.BeginDrain()

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK || string(body) != `{"status":"ok","draining":true}` {
		t.Fatalf("healthz during drain = %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d %q", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "draining for shutdown") {
		t.Fatalf("readyz drain body does not name the drain: %q", body)
	}

	if v, ok := s.metrics.reg.Value("lineartime_serve_draining"); !ok || v != 1 {
		t.Fatalf("lineartime_serve_draining = %v, %v", v, ok)
	}
	if v, ok := s.metrics.reg.Value("lineartime_serve_ready"); !ok || v != 0 {
		t.Fatalf("lineartime_serve_ready = %v, %v", v, ok)
	}
}

// TestOverlayCacheObservable drives the two load shapes the overlay
// cache separates and reads the verdict off its /metrics families. The cache is
// process-wide, so the test uses seeds no other test does and judges
// deltas.
func TestOverlayCacheObservable(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	run := func(seed, faultSeed uint64) {
		t.Helper()
		resp := postRun(t, ts.URL, RunRequest{
			Scenario: "consensus/few-crashes", N: 60, T: 10, Seed: seed,
			Fault: fmt.Sprintf("random-crashes:count=5,horizon=16,seed=%d", faultSeed),
		})
		if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("run = %d %s", resp.StatusCode, body)
		}
	}

	overlays := func() CacheStats {
		v := func(family string) int64 { return int64(metric(t, s, "lineartime_overlay_cache_"+family)) }
		return CacheStats{Hits: v("hits_total"), Misses: v("misses_total"), Evictions: v("evictions_total"),
			Entries: v("entries"), Bytes: v("bytes"), Capacity: v("capacity_bytes")}
	}

	// Every result-cache key distinct, one recurring overlay set: the
	// overlays are admitted at their second sight and hit from then on.
	before := overlays()
	for fault := uint64(1); fault <= 4; fault++ {
		run(0x0be5e17ab1e, fault)
	}
	recurring := overlays()
	if recurring.Hits <= before.Hits || recurring.Entries <= before.Entries {
		t.Fatalf("recurring overlays not cached: %+v -> %+v", before, recurring)
	}
	if recurring.Bytes > recurring.Capacity {
		t.Fatalf("overlay cache over budget: %+v", recurring)
	}

	// A fresh seed per request: nothing recurs, nothing is retained.
	for seed := uint64(0); seed < 4; seed++ {
		run(0xf4e5400000+seed, 1)
	}
	fresh := overlays()
	if fresh.Entries != recurring.Entries || fresh.Bytes != recurring.Bytes {
		t.Fatalf("fresh seeds retained overlays: %+v -> %+v", recurring, fresh)
	}
	if fresh.Misses <= recurring.Misses {
		t.Fatalf("fresh seeds did not build: %+v -> %+v", recurring, fresh)
	}

	// The builds' time and rejected seeds sit next to the cache
	// counters in /metrics: the fresh seeds' builds took time, and the
	// rotations are a count, never negative.
	seconds := metric(t, s, "lineartime_overlay_build_seconds_total")
	for seed := uint64(4); seed < 8; seed++ {
		run(0xf4e5400000+seed, 1)
	}
	if after := metric(t, s, "lineartime_overlay_build_seconds_total"); after <= seconds {
		t.Fatalf("build seconds did not grow over fresh builds: %v -> %v", seconds, after)
	}
	if rotations := metric(t, s, "lineartime_overlay_seed_rotations_total"); rotations < 0 {
		t.Fatalf("seed rotations = %v", rotations)
	}
}
