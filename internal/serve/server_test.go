package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lineartime/internal/obs"
	"lineartime/internal/scenario"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postRun(t *testing.T, url string, req RunRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// metric reads one family of s's registry, the one /metrics renders.
func metric(t *testing.T, s *Server, name string, labels ...obs.L) float64 {
	t.Helper()
	v, ok := s.metrics.reg.Value(name, labels...)
	if !ok {
		t.Fatalf("%s %v not registered", name, labels)
	}
	return v
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestHealthAndScenarios(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK || string(body) != `{"status":"ok"}` {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Scenarios []ScenarioInfo `json:"scenarios"`
	}
	if err := json.Unmarshal(readAll(t, resp), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Scenarios) != len(scenario.All()) {
		t.Fatalf("scenarios listed = %d, want %d", len(list.Scenarios), len(scenario.All()))
	}
	found := false
	for _, info := range list.Scenarios {
		if info.Name == "consensus/few-crashes/omission" {
			found = true
			if info.Fault != "omission" || info.Problem != "consensus" {
				t.Fatalf("scenario info = %+v", info)
			}
		}
	}
	if !found {
		t.Fatal("fault-bound row missing from /v1/scenarios")
	}
}

// TestRunCacheHitByteIdentical is the serving layer's core promise:
// the repeat of a request is served from cache, marked as such, and
// its body is byte-for-byte the first response — determinism makes the
// cached bytes provably correct.
func TestRunCacheHitByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := RunRequest{Scenario: "consensus/few-crashes", N: 60, T: 10, Seed: 1}

	first := postRun(t, ts.URL, req)
	firstBody := readAll(t, first)
	if first.StatusCode != http.StatusOK || first.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first request: status=%d X-Cache=%q", first.StatusCode, first.Header.Get("X-Cache"))
	}

	second := postRun(t, ts.URL, req)
	secondBody := readAll(t, second)
	if second.StatusCode != http.StatusOK || second.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second request: status=%d X-Cache=%q", second.StatusCode, second.Header.Get("X-Cache"))
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatalf("cache hit not byte-identical:\n first  %s\n second %s", firstBody, secondBody)
	}

	var env RunResponse
	if err := json.Unmarshal(secondBody, &env); err != nil {
		t.Fatal(err)
	}
	wantKey := scenario.MustLookup(req.Scenario).Spec(req.N, req.T, req.Seed).Key()
	if env.Key != wantKey {
		t.Fatalf("envelope key = %s, want %s", env.Key, wantKey)
	}
	if env.Report == nil || env.Report.Consensus == nil || !env.Report.Consensus.Agreement {
		t.Fatalf("report did not round-trip: %+v", env.Report)
	}

	hits, misses := metric(t, s, "lineartime_cache_hits_total"), metric(t, s, "lineartime_cache_misses_total")
	if completed := metric(t, s, "lineartime_queue_completed_total"); hits != 1 || misses != 1 || completed != 1 {
		t.Fatalf("counters after miss+hit: %v hits, %v misses, %v completed", hits, misses, completed)
	}
}

// TestConcurrentIdenticalRequestsRunOnce pins request coalescing end
// to end over real HTTP under -race: N concurrent identical requests
// cost exactly one engine run. The injected runner is gated so no
// request can finish before every follower has parked on the leader's
// flight (the coalesced counter observes exactly that).
func TestConcurrentIdenticalRequestsRunOnce(t *testing.T) {
	const clients = 16
	gate := make(chan struct{})
	var engineRuns atomic.Int64
	cfg := Config{Workers: 2, run: func(sp scenario.Spec) (*scenario.Report, error) {
		engineRuns.Add(1)
		<-gate
		return scenario.Run(sp)
	}}
	s, ts := newTestServer(t, cfg)

	req := RunRequest{Scenario: "consensus/few-crashes", N: 60, T: 10, Seed: 1}
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postRun(t, ts.URL, req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
			}
			bodies[i] = readAll(t, resp)
		}(i)
	}
	// While the runner is gated the cache cannot fill, so every client
	// lands in the flight group: 1 leader + 15 followers.
	for s.flight.Coalesced() < clients-1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if n := engineRuns.Load(); n != 1 {
		t.Fatalf("%d engine runs for %d concurrent identical requests, want 1", n, clients)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d body diverged", i)
		}
	}
	if c := metric(t, s, "lineartime_coalesced_total"); c != clients-1 {
		t.Fatalf("coalesced = %v, want %d", c, clients-1)
	}
}

// TestQueueBackpressure429 fills the one-worker, one-slot queue and
// checks the overload response: HTTP 429 with the structured busy
// error, while the in-flight requests complete normally.
func TestQueueBackpressure429(t *testing.T) {
	gate := make(chan struct{})
	var started atomic.Int64
	cfg := Config{Workers: 1, QueueDepth: 1, run: func(sp scenario.Spec) (*scenario.Report, error) {
		started.Add(1)
		<-gate
		return scenario.Run(sp)
	}}
	s, ts := newTestServer(t, cfg)

	respc := make(chan *http.Response, 2)
	post := func(seed uint64) {
		respc <- postRun(t, ts.URL, RunRequest{Scenario: "consensus/few-crashes", N: 60, T: 10, Seed: seed})
	}
	go post(1) // occupies the worker
	for started.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	go post(2) // occupies the queue slot
	for len(s.pool.jobs) == 0 {
		time.Sleep(time.Millisecond)
	}

	over := postRun(t, ts.URL, RunRequest{Scenario: "consensus/few-crashes", N: 60, T: 10, Seed: 3})
	body := readAll(t, over)
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429", over.StatusCode)
	}
	if want := `{"error":{"code":"busy","message":"serve: job queue full"}}`; string(body) != want {
		t.Fatalf("overload body = %s, want %s", body, want)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		resp := <-respc
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("in-flight request finished with %d", resp.StatusCode)
		}
		readAll(t, resp)
	}
	if r := metric(t, s, "lineartime_queue_rejected_total"); r != 1 {
		t.Fatalf("rejected = %v, want 1", r)
	}
}

// TestValidationErrorGoldens pins one negative-path response per fault
// kind: a structured JSON body with a stable code and the public
// "lineartime:"-prefixed message, never plain text.
func TestValidationErrorGoldens(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		kind  string
		fault string
		want  string
	}{
		{"omission", "omission:rate=1.5",
			`{"error":{"code":"invalid_argument","message":"lineartime: omission rate 1.5 outside [0, 1]"}}`},
		{"partition", "partition:from=4,to=4",
			`{"error":{"code":"invalid_argument","message":"lineartime: empty partition window [4, 4)"}}`},
		{"delay", "delay:d=0",
			`{"error":{"code":"invalid_argument","message":"lineartime: delay bound 0 must be positive"}}`},
		{"random-crashes", "random-crashes:count=100,horizon=10",
			`{"error":{"code":"invalid_argument","message":"lineartime: crash budget 100 exceeds n=60"}}`},
		{"cascade", "cascade:count=5,pool=70",
			`{"error":{"code":"invalid_argument","message":"lineartime: victim pool 70 outside [0, 60]"}}`},
		{"target-little", "target-little:count=-1",
			`{"error":{"code":"invalid_argument","message":"lineartime: negative crash budget -1"}}`},
		{"crash-schedule", "crash-schedule:events=99@0",
			`{"error":{"code":"invalid_argument","message":"lineartime: scheduled crash of node 99 outside [0, 60)"}}`},
		{"byzantine", "byzantine",
			`{"error":{"code":"invalid_argument","message":"lineartime: byzantine faults are configured per scenario (-byz/-byzcount), not as a link fault"}}`},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			resp := postRun(t, ts.URL, RunRequest{Scenario: "consensus/few-crashes", N: 60, T: 10, Seed: 1, Fault: tc.fault})
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q", ct)
			}
			if string(body) != tc.want {
				t.Fatalf("body drifted:\n got  %s\n want %s", body, tc.want)
			}
		})
	}
}

func TestRequestShapeErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp := postRun(t, ts.URL, RunRequest{Scenario: "consensus/nonsense", N: 60, T: 10})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown scenario status = %d, want 404", resp.StatusCode)
	}
	if want := `{"error":{"code":"unknown_scenario","message":"lineartime: unknown scenario \"consensus/nonsense\" (see /v1/scenarios)"}}`; string(body) != want {
		t.Fatalf("unknown-scenario body = %s", body)
	}

	resp = postRun(t, ts.URL, RunRequest{Scenario: "consensus/few-crashes", N: 0, T: 10})
	if readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("n=0 status = %d, want 400", resp.StatusCode)
	}

	// Shape errors from deeper layers (topology constraints) are still
	// the client's fault.
	resp = postRun(t, ts.URL, RunRequest{Scenario: "consensus/few-crashes", N: 10, T: 9})
	body = readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `"code":"invalid_argument"`) {
		t.Fatalf("topology error = %d %s", resp.StatusCode, body)
	}

	raw, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, raw)
	if raw.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `"code":"bad_json"`) {
		t.Fatalf("bad json = %d %s", raw.StatusCode, body)
	}

	if resp, err := http.Get(ts.URL + "/v1/run"); err != nil {
		t.Fatal(err)
	} else if readAll(t, resp); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run status = %d, want 405", resp.StatusCode)
	}
}

// TestOversizedRoundSlackIsRejected: a round slack beyond the runner's
// bound is the client's mistake, answered with a 400 before any engine
// state is sized by it — and the daemon is still there for the next
// request.
func TestOversizedRoundSlackIsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"scenario":"consensus/flooding","n":8,"t":1,"round_slack":1099511627776}`))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if want := `{"error":{"code":"invalid_argument","message":"lineartime: round slack 1099511627776 exceeds 1024"}}`; resp.StatusCode != http.StatusBadRequest || string(body) != want {
		t.Fatalf("oversized slack = %d %s", resp.StatusCode, body)
	}
	next := postRun(t, ts.URL, RunRequest{Scenario: "consensus/flooding", N: 8, T: 1, RoundSlack: 4})
	if body := readAll(t, next); next.StatusCode != http.StatusOK {
		t.Fatalf("next request = %d %s", next.StatusCode, body)
	}
}

// TestSweepSharesTheRunCache checks sweep points flow through the same
// cached path as /v1/run: the sweep's per-point envelopes are
// byte-identical to the individual run responses, and a repeated sweep
// is all hits.
func TestSweepSharesTheRunCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sweep := SweepRequest{
		Scenario: "consensus/few-crashes",
		Seed:     1,
		Points:   []SweepPoint{{N: 60, T: 10}, {N: 80, T: 16}},
	}
	body, err := json.Marshal(sweep)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr SweepResponse
	if err := json.Unmarshal(readAll(t, resp), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Count != 2 || len(sr.Results) != 2 {
		t.Fatalf("sweep response = %+v", sr)
	}

	for i, pt := range sweep.Points {
		run := postRun(t, ts.URL, RunRequest{Scenario: sweep.Scenario, N: pt.N, T: pt.T, Seed: sweep.Seed})
		runBody := readAll(t, run)
		if run.Header.Get("X-Cache") != "hit" {
			t.Fatalf("point %d not served from the sweep-filled cache", i)
		}
		if !bytes.Equal(runBody, sr.Results[i]) {
			t.Fatalf("point %d: run body != sweep result\n run   %s\n sweep %s", i, runBody, sr.Results[i])
		}
	}

	before := metric(t, s, "lineartime_queue_completed_total")
	resp, err = http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if after := metric(t, s, "lineartime_queue_completed_total"); after != before {
		t.Fatalf("repeated sweep ran %v engines, want 0", after-before)
	}

	// A sweep with no points is a validation error.
	resp, err = http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{"scenario":"consensus/few-crashes","points":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty sweep status = %d, want 400", resp.StatusCode)
	}
}

// TestMetricsGaugeShape scrapes /metrics after a miss and a hit and
// sanity-checks the component gauges and the engine's round split.
func TestMetricsGaugeShape(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheBytes: 1 << 20, Workers: 1})
	readAll(t, postRun(t, ts.URL, RunRequest{Scenario: "gossip/expander", N: 50, T: 10, Seed: 1}))
	readAll(t, postRun(t, ts.URL, RunRequest{Scenario: "gossip/expander", N: 50, T: 10, Seed: 1}))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	// Each sample line is "name{labels} value".
	samples := make(map[string]float64)
	for _, line := range strings.Split(string(readAll(t, resp)), "\n") {
		if cut := strings.LastIndexByte(line, ' '); cut > 0 && !strings.HasPrefix(line, "#") {
			var v float64
			if _, err := fmt.Sscan(line[cut+1:], &v); err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			samples[line[:cut]] = v
		}
	}
	value := func(name string) float64 {
		t.Helper()
		v, ok := samples[name]
		if !ok {
			t.Fatalf("/metrics has no sample %s", name)
		}
		return v
	}
	if value("lineartime_cache_hits_total") != 1 || value("lineartime_cache_misses_total") != 1 || value("lineartime_cache_entries") != 1 {
		t.Fatalf("cache samples: %v hits, %v misses, %v entries", value("lineartime_cache_hits_total"),
			value("lineartime_cache_misses_total"), value("lineartime_cache_entries"))
	}
	if value("lineartime_queue_workers") != 1 || value("lineartime_queue_completed_total") != 1 {
		t.Fatalf("queue samples: %v workers, %v completed", value("lineartime_queue_workers"), value("lineartime_queue_completed_total"))
	}
	if value("lineartime_cache_bytes") <= 0 || value("lineartime_cache_capacity_bytes") != 1<<20 {
		t.Fatalf("cache budget: %v bytes of %v", value("lineartime_cache_bytes"), value("lineartime_cache_capacity_bytes"))
	}
	if value("lineartime_uptime_seconds") < 0 {
		t.Fatalf("uptime = %v", value("lineartime_uptime_seconds"))
	}
	// One engine run: gossip machines sleep, so its simulated rounds
	// are mostly quiet or repeated, not executed.
	executed := value(`lineartime_engine_rounds_total{state="executed"}`)
	skipped := value(`lineartime_engine_rounds_total{state="quiet"}`) + value(`lineartime_engine_rounds_total{state="repeated"}`)
	if executed <= 0 || skipped <= executed {
		t.Fatalf("engine rounds after one gossip run: %v executed, %v skipped", executed, skipped)
	}
}

// TestRunErrorsAreNotCached checks a failed run leaves no cache entry
// behind: the next identical request runs the engine again.
func TestRunErrorsAreNotCached(t *testing.T) {
	var calls atomic.Int64
	cfg := Config{run: func(sp scenario.Spec) (*scenario.Report, error) {
		if calls.Add(1) == 1 {
			return nil, fmt.Errorf("lineartime: transient failure")
		}
		return scenario.Run(sp)
	}}
	_, ts := newTestServer(t, cfg)
	req := RunRequest{Scenario: "consensus/few-crashes", N: 60, T: 10, Seed: 1}

	resp := postRun(t, ts.URL, req)
	readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("first status = %d", resp.StatusCode)
	}
	resp = postRun(t, ts.URL, req)
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry status = %d, want 200", resp.StatusCode)
	}
	if calls.Load() != 2 {
		t.Fatalf("runner calls = %d, want 2", calls.Load())
	}
}
