package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lineartime/internal/obs"
	"lineartime/internal/scenario"
)

// maxSweepPoints bounds one /v1/sweep request so a single call cannot
// monopolize the queue.
const maxSweepPoints = 1024

// maxBodyBytes caps request bodies before they are decoded: the
// largest legitimate request (a full-size sweep) is a few tens of KB,
// so decoding is never allowed to balloon memory ahead of the
// queue's backpressure.
const maxBodyBytes = 1 << 20

// Config sizes a Server. Zero values select the defaults documented on
// each field.
type Config struct {
	// CacheBytes is the total result-cache budget (default 64 MiB).
	CacheBytes int64
	// CacheShards is the cache shard count (default 16).
	CacheShards int
	// Workers is the engine worker count (default 2).
	Workers int
	// QueueDepth is the bounded job-queue capacity (default 4×Workers);
	// a full queue rejects with HTTP 429.
	QueueDepth int
	// MaxJobs bounds the campaign job store (default 8). When every
	// slot holds a running campaign, POST /v1/campaigns rejects with
	// HTTP 429; terminal jobs are evicted oldest-first to admit new
	// ones.
	MaxJobs int

	// AccessLog, when set, receives one AccessRecord per request after
	// the response is written (the daemon's -log-format json sink).
	AccessLog func(AccessRecord)

	// run substitutes the engine entry point in tests; nil means
	// scenario.Run.
	run func(scenario.Spec) (*scenario.Report, error)
}

// Server wires the result cache, the request coalescer and the worker
// pool behind an HTTP/JSON API. Construct with New, expose via
// Handler, release the workers with Close.
type Server struct {
	cache   *Cache
	flight  *flightGroup
	pool    *workPool
	jobs    *jobStore
	mux     *http.ServeMux
	started time.Time
	// metrics is the obs registry plus every pre-registered handle;
	// /metrics and /statsz both render from it.
	metrics   *serveMetrics
	accessLog func(AccessRecord)
	// ready gates /readyz: false during startup (until the owner calls
	// SetReady) and again during shutdown drain, so orchestrators stop
	// routing new traffic while in-flight work finishes.
	ready atomic.Bool
	// draining marks a graceful shutdown in progress (BeginDrain):
	// /healthz and /readyz report it in their bodies and the
	// lineartime_serve_draining gauge exports it.
	draining atomic.Bool
}

// RunRequest is the body of POST /v1/run: a registry scenario
// materialized at size (n, t) with the canonical inputs of the
// registry row. Fault, when non-empty, overrides the row's bound fault
// model using the CLI spelling of scenario.ParseFault.
type RunRequest struct {
	Scenario   string `json:"scenario"`
	N          int    `json:"n"`
	T          int    `json:"t"`
	Seed       uint64 `json:"seed"`
	Fault      string `json:"fault,omitempty"`
	Degree     int    `json:"degree,omitempty"`
	RoundSlack int    `json:"round_slack,omitempty"`
}

// RunResponse is the body of POST /v1/run: the content address of the
// run and its unified report. The daemon serves exactly these bytes
// from cache on a hit, and linearsim -json emits the same encoding.
// Trace carries the stage-timing transcript of linearsim -trace -json;
// the daemon never sets it, and omitempty keeps the daemon encoding
// byte-identical to the traceless CLI one.
type RunResponse struct {
	Key    string           `json:"key"`
	Report *scenario.Report `json:"report"`
	Trace  *obs.Trace       `json:"trace,omitempty"`
}

// EncodeRunResponse is the one encoder of the run envelope, shared by
// the daemon and linearsim -json so scripted consumers see a single
// format.
func EncodeRunResponse(key string, rep *scenario.Report) ([]byte, error) {
	return EncodeRunResponseTrace(key, rep, nil)
}

// EncodeRunResponseTrace is EncodeRunResponse with the optional trace
// transcript attached; a nil trace encodes identically to
// EncodeRunResponse. The bytes are json.Marshal(RunResponse{…})'s (a test
// holds the two equal) without its pass over a gossip report's views: the
// envelope is marshaled around a null report, which Report.AppendJSON fills.
func EncodeRunResponseTrace(key string, rep *scenario.Report, tr *obs.Trace) ([]byte, error) {
	shell, err := json.Marshal(RunResponse{Key: key, Trace: tr})
	if err != nil {
		return nil, err
	}
	// The key is escaped, so the first bare "report" is the member.
	at := bytes.Index(shell, []byte(`,"report":null`)) + len(`,"report":`)
	scratch, _ := encodeScratch.Get().(*[]byte)
	if scratch == nil {
		scratch = new([]byte)
	}
	body, err := rep.AppendJSON((*scratch)[:0])
	if cap(body) <= maxPooledEncode {
		*scratch = body
		defer encodeScratch.Put(scratch)
	}
	if err != nil {
		return nil, err
	}
	// Sized exactly: the result cache holds these bytes, not body's slack,
	// and never the scratch buffer the next encode reuses.
	out := make([]byte, 0, len(shell)-len(`null`)+len(body))
	return append(append(append(out, shell[:at]...), body...), shell[at+len(`null`):]...), nil
}

// encodeScratch recycles the buffer EncodeRunResponseTrace assembles a
// report in, which a gossip report grows through a dozen doublings;
// buffers above maxPooledEncode are left to the collector.
var encodeScratch sync.Pool

const maxPooledEncode = 4 << 20

// SweepPoint is one size of a sweep request.
type SweepPoint struct {
	N int `json:"n"`
	T int `json:"t"`
}

// SweepRequest is the body of POST /v1/sweep: one scenario across many
// sizes. Every point goes through the same cached run path as /v1/run.
type SweepRequest struct {
	Scenario string       `json:"scenario"`
	Seed     uint64       `json:"seed"`
	Fault    string       `json:"fault,omitempty"`
	Points   []SweepPoint `json:"points"`
}

// SweepResponse is the body of POST /v1/sweep.
type SweepResponse struct {
	Scenario string            `json:"scenario"`
	Count    int               `json:"count"`
	Results  []json.RawMessage `json:"results"`
}

// ScenarioInfo is one row of GET /v1/scenarios.
type ScenarioInfo struct {
	Name        string   `json:"name"`
	Problem     string   `json:"problem"`
	Algorithm   string   `json:"algorithm"`
	Port        string   `json:"port"`
	Fault       string   `json:"fault"`
	Experiments []string `json:"experiments,omitempty"`
	About       string   `json:"about"`
}

// Stats is the body of GET /statsz.
type Stats struct {
	UptimeSeconds float64    `json:"uptime_seconds"`
	Cache         CacheStats `json:"cache"`
	OverlayCache  CacheStats `json:"overlay_cache"`
	Coalesced     int64      `json:"coalesced"`
	Queue         QueueStats `json:"queue"`
	Engine        RoundStats `json:"engine"`
	Campaigns     JobsStats  `json:"campaigns"`
}

// RoundStats splits the rounds the sequential engine simulated into
// those it stepped node by node and those it fast-forwarded
// (sim.Sleeper): RoundsSkipped counts the quiet and the repeated ones,
// RoundsRepeated the repeated ones alone.
type RoundStats struct {
	RoundsExecuted int64 `json:"rounds_executed"`
	RoundsSkipped  int64 `json:"rounds_skipped"`
	RoundsRepeated int64 `json:"rounds_repeated"`
}

// ErrorBody is the structured error envelope of every non-2xx
// response: a stable machine-readable code plus the human message.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the code and message of an ErrorBody.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	s := &Server{
		cache:     NewCache(cfg.CacheBytes, cfg.CacheShards),
		flight:    newFlightGroup(),
		pool:      newWorkPool(cfg.Workers, cfg.QueueDepth, cfg.run),
		mux:       http.NewServeMux(),
		started:   time.Now(),
		accessLog: cfg.AccessLog,
	}
	s.metrics = newServeMetrics(s)
	s.jobs = newJobStore(cfg.MaxJobs, s.pool.workers, s.campaignRun)
	s.metrics.registerJobsMetrics(s)
	s.route("POST /v1/run", s.handleRun)
	s.route("POST /v1/sweep", s.handleSweep)
	s.route("GET /v1/scenarios", s.handleScenarios)
	s.route("POST /v1/campaigns", s.handleCampaignPost)
	s.route("GET /v1/campaigns", s.handleCampaignList)
	s.route("GET /v1/campaigns/{id}", s.handleCampaignGet)
	s.route("DELETE /v1/campaigns/{id}", s.handleCampaignCancel)
	s.route("GET /healthz", s.handleHealth)
	s.route("GET /readyz", s.handleReady)
	s.route("GET /statsz", s.handleStats)
	s.route("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the HTTP surface of the server.
func (s *Server) Handler() http.Handler { return s.mux }

// SetReady flips the /readyz gate. The daemon sets it true once the
// listener is up (and restored campaigns are launched), and false at
// the start of a graceful shutdown.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// BeginDrain marks the start of a graceful shutdown: the readiness
// gate closes and /healthz, /readyz and the lineartime_serve_draining
// gauge report the drain so the SIGTERM sequence is observable.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.ready.Store(false)
}

// Close stops the server's workers. Campaign jobs drain first —
// running campaigns checkpoint as interrupted — because their
// controllers submit to the worker pool until their in-flight batch
// lands; only then is the pool closed. In-flight requests finish.
func (s *Server) Close() {
	s.jobs.drain()
	s.pool.Close()
}

// Stats snapshots the server counters. The snapshot is generated from
// the same obs registry that renders /metrics — every field is a
// Value() lookup of the corresponding family — so the JSON gauge dump
// and the Prometheus exposition cannot drift apart.
func (s *Server) Stats() Stats {
	iv := func(name string) int64 {
		v, _ := s.metrics.reg.Value(name)
		return int64(v)
	}
	fv := func(name string) float64 {
		v, _ := s.metrics.reg.Value(name)
		return v
	}
	roundsIn := func(state string) int64 {
		v, _ := s.metrics.reg.Value("lineartime_engine_rounds_total", obs.L{Key: "state", Value: state})
		return int64(v)
	}
	// Both caches export the same six families under their own stem.
	cache := func(stem string) CacheStats {
		return CacheStats{
			Hits:      iv(stem + "hits_total"),
			Misses:    iv(stem + "misses_total"),
			Evictions: iv(stem + "evictions_total"),
			Entries:   iv(stem + "entries"),
			Bytes:     iv(stem + "bytes"),
			Capacity:  iv(stem + "capacity_bytes"),
		}
	}
	return Stats{
		UptimeSeconds: fv("lineartime_uptime_seconds"),
		Cache:         cache("lineartime_cache_"),
		OverlayCache:  cache("lineartime_overlay_cache_"),
		Coalesced:     iv("lineartime_coalesced_total"),
		Queue: QueueStats{
			Workers:   int(iv("lineartime_queue_workers")),
			Depth:     int(iv("lineartime_queue_depth")),
			Capacity:  int(iv("lineartime_queue_capacity")),
			Rejected:  iv("lineartime_queue_rejected_total"),
			Completed: iv("lineartime_queue_completed_total"),
			Errored:   iv("lineartime_queue_errored_total"),
		},
		Engine: RoundStats{
			RoundsExecuted: roundsIn("executed"),
			RoundsSkipped:  roundsIn("quiet") + roundsIn("repeated"),
			RoundsRepeated: roundsIn("repeated"),
		},
		Campaigns: JobsStats{
			Capacity: int(iv("lineartime_campaign_jobs_capacity")),
			Jobs:     int(iv("lineartime_campaign_jobs")),
			Running:  int(iv("lineartime_campaign_jobs_running")),
			Launched: iv("lineartime_campaign_jobs_launched_total"),
			Resumed:  iv("lineartime_campaign_jobs_resumed_total"),
		},
	}
}

// apiError is an HTTP-mappable error: a status, a stable code, and the
// user-facing message.
type apiError struct {
	status  int
	code    string
	message string
}

func (e *apiError) Error() string { return e.message }

// classify maps an error onto its HTTP shape. Validation errors — the
// public "lineartime:" prefix, plus the scenario layer's own prefix
// (rebranded, matching the root API) and the topology constructors'
// "consensus:" prefix — are the client's fault (400). A full queue is
// backpressure (429). Anything else is the server's fault (500).
func classify(err error) *apiError {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	if errors.Is(err, ErrBusy) {
		return &apiError{status: http.StatusTooManyRequests, code: "busy", message: err.Error()}
	}
	msg := err.Error()
	if rest, ok := strings.CutPrefix(msg, "scenario: "); ok {
		msg = "lineartime: " + rest
	}
	if strings.HasPrefix(msg, "lineartime:") || strings.HasPrefix(msg, "consensus:") {
		return &apiError{status: http.StatusBadRequest, code: "invalid_argument", message: msg}
	}
	return &apiError{status: http.StatusInternalServerError, code: "internal", message: msg}
}

// writeError writes the structured JSON error body for err.
func writeError(w http.ResponseWriter, err error) {
	ae := classify(err)
	body, mErr := json.Marshal(ErrorBody{Error: ErrorDetail{Code: ae.code, Message: ae.message}})
	if mErr != nil {
		http.Error(w, ae.message, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(ae.status)
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// specFor materializes a run request against the registry.
func specFor(req RunRequest) (scenario.Spec, error) {
	d, ok := scenario.Lookup(req.Scenario)
	if !ok {
		return scenario.Spec{}, &apiError{
			status:  http.StatusNotFound,
			code:    "unknown_scenario",
			message: fmt.Sprintf("lineartime: unknown scenario %q (see /v1/scenarios)", req.Scenario),
		}
	}
	if req.N <= 0 {
		return scenario.Spec{}, &apiError{
			status:  http.StatusBadRequest,
			code:    "invalid_argument",
			message: fmt.Sprintf("lineartime: n=%d must be positive", req.N),
		}
	}
	sp := d.Spec(req.N, req.T, req.Seed)
	if req.Fault != "" {
		f, err := scenario.ParseFault(req.Fault)
		if err != nil {
			return scenario.Spec{}, err
		}
		sp.Fault = f
	}
	sp.Degree = req.Degree
	sp.RoundSlack = req.RoundSlack
	return sp, nil
}

// cacheState labels the X-Cache response header.
type cacheState string

// The X-Cache header values.
const (
	cacheHit       cacheState = "hit"
	cacheMiss      cacheState = "miss"
	cacheCoalesced cacheState = "coalesced"
)

// runCached is the cached run path shared by /v1/run and /v1/sweep:
// cache lookup, then a coalesced engine run through the bounded pool,
// then cache fill. The returned bytes are the exact response body — a
// hit replays byte-identical output.
func (s *Server) runCached(sp scenario.Spec) ([]byte, string, cacheState, error) {
	key := sp.Key()
	if body, ok := s.cache.Get(key); ok {
		return body, key, cacheHit, nil
	}
	body, shared, err := s.flight.Do(key, func() ([]byte, error) {
		// Every served run reports stage timings and outcome through
		// the shared engine tracer. Installed after Key(): the tracer
		// is runtime-only state, never part of the cache identity.
		sp.Tracer = s.metrics.tracer
		rep, err := s.pool.Submit(sp)
		if err != nil {
			return nil, err
		}
		body, err := EncodeRunResponse(key, rep)
		if err != nil {
			return nil, err
		}
		s.cache.Put(key, body)
		return body, nil
	})
	if err != nil {
		return nil, key, cacheMiss, err
	}
	if shared {
		return body, key, cacheCoalesced, nil
	}
	return body, key, cacheMiss, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, &apiError{
			status:  http.StatusBadRequest,
			code:    "bad_json",
			message: "lineartime: request body is not valid JSON: " + err.Error(),
		})
		return
	}
	sp, err := specFor(req)
	if err != nil {
		writeError(w, err)
		return
	}
	body, key, state, err := s.runCached(sp)
	if err != nil {
		writeError(w, err)
		return
	}
	setRunKey(w, key)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", string(state))
	w.Write(body)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, &apiError{
			status:  http.StatusBadRequest,
			code:    "bad_json",
			message: "lineartime: request body is not valid JSON: " + err.Error(),
		})
		return
	}
	if len(req.Points) == 0 {
		writeError(w, &apiError{
			status:  http.StatusBadRequest,
			code:    "invalid_argument",
			message: "lineartime: sweep request has no points",
		})
		return
	}
	if len(req.Points) > maxSweepPoints {
		writeError(w, &apiError{
			status:  http.StatusBadRequest,
			code:    "invalid_argument",
			message: fmt.Sprintf("lineartime: %d sweep points exceed the limit of %d", len(req.Points), maxSweepPoints),
		})
		return
	}
	resp := SweepResponse{Scenario: req.Scenario, Count: len(req.Points), Results: make([]json.RawMessage, 0, len(req.Points))}
	for _, pt := range req.Points {
		sp, err := specFor(RunRequest{Scenario: req.Scenario, N: pt.N, T: pt.T, Seed: req.Seed, Fault: req.Fault})
		if err != nil {
			writeError(w, err)
			return
		}
		body, _, _, err := s.runCached(sp)
		if err != nil {
			writeError(w, err)
			return
		}
		resp.Results = append(resp.Results, json.RawMessage(body))
	}
	writeJSON(w, resp)
}

func (s *Server) handleScenarios(w http.ResponseWriter, _ *http.Request) {
	defs := scenario.All()
	infos := make([]ScenarioInfo, 0, len(defs))
	for _, d := range defs {
		infos = append(infos, ScenarioInfo{
			Name:        d.Name,
			Problem:     d.Problem.String(),
			Algorithm:   string(d.Algorithm),
			Port:        d.Port.String(),
			Fault:       d.Fault.Kind.String(),
			Experiments: d.Experiments,
			About:       d.About,
		})
	}
	writeJSON(w, struct {
		Scenarios []ScenarioInfo `json:"scenarios"`
	}{infos})
}

// handleHealth is liveness: the process is up and serving HTTP. It
// stays 200 through startup and drain; orchestrators restart on
// liveness failure, so flapping it during a graceful shutdown would
// turn every deploy into a kill. During a drain the body additionally
// reports "draining":true (omitted otherwise, so the steady-state body
// stays exactly {"status":"ok"}).
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining,omitempty"`
	}{Status: "ok", Draining: s.draining.Load()})
}

// handleReady is readiness: whether new traffic should be routed
// here. Not-ready (503) during startup until the daemon flips
// SetReady, and again once a graceful shutdown begins draining; the
// body says which, so the SIGTERM sequence is observable.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		msg := "lineartime: daemon is starting up or draining"
		if s.draining.Load() {
			msg = "lineartime: daemon is draining for shutdown"
		}
		writeError(w, &apiError{
			status:  http.StatusServiceUnavailable,
			code:    "not_ready",
			message: msg,
		})
		return
	}
	writeJSON(w, struct {
		Status string `json:"status"`
	}{"ready"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Stats())
}
