package serve

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"

	"lineartime/internal/campaign"
	"lineartime/internal/expander"
	"lineartime/internal/obs"
)

// statusClasses are the code label values of the request counters.
var statusClasses = [...]string{"2xx", "3xx", "4xx", "5xx"}

// classIndex maps an HTTP status to its class label index.
func classIndex(status int) int {
	switch {
	case status < 300:
		return 0
	case status < 400:
		return 1
	case status < 500:
		return 2
	default:
		return 3
	}
}

// routeMetrics holds one route's pre-registered handles: a counter per
// status class and one latency histogram.
type routeMetrics struct {
	requests [len(statusClasses)]*obs.Counter
	latency  *obs.Histogram
}

// serveMetrics is the serving tier's observability surface: the
// registry every family lives in, the engine tracer installed on each
// run Spec, the shared campaign meter, and the per-route request
// handles. Component counters (cache, coalescer, queue, jobs) are
// exported through CounterFunc/GaugeFunc closures over the atomics the
// components already keep.
type serveMetrics struct {
	reg      *obs.Registry
	tracer   *obs.EngineTracer
	campaign *campaign.Meter
	routes   map[string]*routeMetrics
}

// newServeMetrics builds the registry and every static family for s.
// Called once from New, after the components exist.
func newServeMetrics(s *Server) *serveMetrics {
	reg := obs.NewRegistry()
	m := &serveMetrics{
		reg:      reg,
		tracer:   obs.NewEngineTracer(reg),
		campaign: campaign.NewMeter(reg),
		routes:   make(map[string]*routeMetrics),
	}

	reg.GaugeFunc("lineartime_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })
	reg.GaugeFunc("lineartime_serve_ready",
		"1 when /readyz reports ready, else 0.",
		func() float64 { return b2f(s.ready.Load()) })
	reg.GaugeFunc("lineartime_serve_draining",
		"1 once a graceful shutdown began draining, else 0.",
		func() float64 { return b2f(s.draining.Load()) })

	c := s.cache
	reg.CounterFunc("lineartime_cache_hits_total",
		"Result-cache hits.", func() int64 { return c.hits.Load() })
	reg.CounterFunc("lineartime_cache_misses_total",
		"Result-cache misses.", func() int64 { return c.misses.Load() })
	reg.CounterFunc("lineartime_cache_evictions_total",
		"Result-cache LRU evictions.", func() int64 { return c.evictions.Load() })
	reg.GaugeFunc("lineartime_cache_entries",
		"Result-cache resident entries.", func() float64 { return float64(c.Entries()) })
	reg.GaugeFunc("lineartime_cache_bytes",
		"Result-cache resident bytes.", func() float64 { return float64(c.Bytes()) })
	reg.GaugeFunc("lineartime_cache_capacity_bytes",
		"Result-cache byte budget.", func() float64 { return float64(c.Capacity()) })

	// The overlay cache is process-wide (expander.New memoizes), so
	// these read the one instance every run in this process shares.
	reg.CounterFunc("lineartime_overlay_cache_hits_total",
		"Overlay requests served without a build.",
		func() int64 { return expander.Stats().Hits })
	reg.CounterFunc("lineartime_overlay_cache_misses_total",
		"Overlay builds (first sights, second sights and re-builds after eviction).",
		func() int64 { return expander.Stats().Misses })
	reg.CounterFunc("lineartime_overlay_cache_evictions_total",
		"Overlay-cache LRU evictions.",
		func() int64 { return expander.Stats().Evictions })
	reg.DurationCounterFunc("lineartime_overlay_build_seconds_total",
		"Wall-clock seconds spent building and verifying overlays, over every overlay-cache miss; divided by the misses, the mean build time.",
		func() time.Duration { return expander.Stats().BuildTime })
	reg.CounterFunc("lineartime_overlay_seed_rotations_total",
		"Seeds overlay builds rejected (unbuildable, disconnected or above the Ramanujan gate) and rotated past.",
		func() int64 { return expander.Stats().SeedRotations })
	reg.GaugeFunc("lineartime_overlay_cache_entries",
		"Overlays resident in the overlay cache.",
		func() float64 { return float64(expander.Stats().Entries) })
	reg.GaugeFunc("lineartime_overlay_cache_bytes",
		"Bytes of resident overlays.",
		func() float64 { return float64(expander.Stats().Bytes) })
	reg.GaugeFunc("lineartime_overlay_cache_capacity_bytes",
		"Overlay-cache byte budget.",
		func() float64 { return float64(expander.Stats().Capacity) })

	// The Go runtime's cumulative counters, read when /metrics is
	// scraped: divided by the requests served in between, the objects
	// and bytes counters are what a request allocates.
	reg.CounterFunc("lineartime_go_gc_cycles_total",
		"Garbage collection cycles the Go runtime completed.",
		runtimeCounter("/gc/cycles/total:gc-cycles"))
	reg.CounterFunc("lineartime_go_heap_allocs_objects_total",
		"Heap objects the Go runtime allocated; tiny allocations count once per 16-byte block they share.",
		runtimeCounter("/gc/heap/allocs:objects"))
	reg.CounterFunc("lineartime_go_heap_allocs_bytes_total",
		"Heap bytes the Go runtime allocated.",
		runtimeCounter("/gc/heap/allocs:bytes"))
	reg.GaugeFunc("lineartime_build_info",
		"Always 1; the labels name the Go toolchain and the VCS revision the binary was built from.",
		func() float64 { return 1 },
		obs.L{Key: "go_version", Value: runtime.Version()}, obs.L{Key: "revision", Value: buildRevision()})

	reg.CounterFunc("lineartime_coalesced_total",
		"Requests served by joining an identical in-flight run.",
		func() int64 { return s.flight.Coalesced() })

	p := s.pool
	reg.GaugeFunc("lineartime_queue_workers",
		"Engine worker count.", func() float64 { return float64(p.workers) })
	reg.GaugeFunc("lineartime_queue_depth",
		"Jobs waiting in the bounded queue.", func() float64 { return float64(len(p.jobs)) })
	reg.GaugeFunc("lineartime_queue_capacity",
		"Bounded queue capacity.", func() float64 { return float64(cap(p.jobs)) })
	reg.CounterFunc("lineartime_queue_rejected_total",
		"Jobs shed with 429 backpressure.", func() int64 { return p.rejected.Load() })
	reg.CounterFunc("lineartime_queue_completed_total",
		"Jobs completed without error.", func() int64 { return p.completed.Load() })
	reg.CounterFunc("lineartime_queue_errored_total",
		"Jobs that returned an error.", func() int64 { return p.errored.Load() })

	return m
}

// registerJobsMetrics wires the campaign store gauges; split from
// newServeMetrics because the store is built after the pool.
func (m *serveMetrics) registerJobsMetrics(s *Server) {
	m.reg.GaugeFunc("lineartime_campaign_jobs",
		"Campaign jobs hosted (any state).",
		func() float64 { return float64(s.jobsStats().Jobs) })
	m.reg.GaugeFunc("lineartime_campaign_jobs_running",
		"Campaign jobs currently running.",
		func() float64 { return float64(s.jobsStats().Running) })
	m.reg.GaugeFunc("lineartime_campaign_jobs_capacity",
		"Campaign job store capacity.",
		func() float64 { return float64(s.jobsStats().Capacity) })
	m.reg.CounterFunc("lineartime_campaign_jobs_launched_total",
		"Campaign jobs launched by POST.",
		func() int64 { st := s.jobs; st.mu.Lock(); defer st.mu.Unlock(); return st.launched })
	m.reg.CounterFunc("lineartime_campaign_jobs_resumed_total",
		"Campaign jobs resumed from the state file.",
		func() int64 { st := s.jobs; st.mu.Lock(); defer st.mu.Unlock(); return st.resumed })
}

// runtimeCounter returns a reader of the named cumulative
// runtime/metrics counter.
func runtimeCounter(name string) func() int64 {
	return func() int64 {
		sample := []metrics.Sample{{Name: name}}
		metrics.Read(sample)
		if sample[0].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return int64(sample[0].Value.Uint64())
	}
}

// buildRevision returns the VCS revision stamped into the binary, with
// a "-dirty" suffix for a modified tree, or "unknown" when the build
// stamped none.
func buildRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, kv := range info.Settings {
		switch {
		case kv.Key == "vcs.revision":
			rev = kv.Value
		case kv.Key == "vcs.modified" && kv.Value == "true":
			dirty = "-dirty"
		}
	}
	return rev + dirty
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// route registers per-path request handles once; routes sharing a path
// (GET and POST /v1/campaigns) share one child set, with the status
// class separating their outcomes.
func (m *serveMetrics) route(path string) *routeMetrics {
	if rm, ok := m.routes[path]; ok {
		return rm
	}
	rm := &routeMetrics{}
	for i, class := range statusClasses {
		rm.requests[i] = m.reg.Counter("lineartime_requests_total",
			"HTTP requests by path and status class.",
			obs.L{Key: "path", Value: path}, obs.L{Key: "code", Value: class})
	}
	rm.latency = m.reg.Histogram("lineartime_request_duration_seconds",
		"HTTP request latency by path.", obs.LatencyBuckets(),
		obs.L{Key: "path", Value: path})
	m.routes[path] = rm
	return rm
}

// AccessRecord is one request's structured log entry, handed to
// Config.AccessLog after the response is written.
type AccessRecord struct {
	Method string
	Path   string
	// Key is the run's content address, when the handler resolved one.
	Key string
	// Cache is the X-Cache verdict (hit / miss / coalesced), when the
	// request went through the cached run path.
	Cache    string
	Status   int
	Duration time.Duration
}

// statusRecorder captures the response status plus the run-path fields
// (key, cache verdict) the instrumented handlers annotate.
type statusRecorder struct {
	http.ResponseWriter
	status int
	key    string
}

func (r *statusRecorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// setRunKey annotates the instrumented response with the run's content
// address so request logs carry it. A no-op for bare ResponseWriters
// (tests calling handlers directly).
func setRunKey(w http.ResponseWriter, key string) {
	if rec, ok := w.(*statusRecorder); ok {
		rec.key = key
	}
}

// route registers pattern on the mux wrapped in the instrumentation
// middleware: per-path request counters and latency histograms, plus
// the structured access log when the host installed one.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	path := pattern
	if i := strings.LastIndexByte(pattern, ' '); i >= 0 {
		path = pattern[i+1:]
	}
	rm := s.metrics.route(path)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		h(rec, r)
		d := time.Since(start)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		rm.requests[classIndex(rec.status)].Inc()
		rm.latency.Observe(d.Seconds())
		if s.accessLog != nil {
			s.accessLog(AccessRecord{
				Method:   r.Method,
				Path:     path,
				Key:      rec.key,
				Cache:    rec.Header().Get("X-Cache"),
				Status:   rec.status,
				Duration: d,
			})
		}
	})
}

// handleMetrics serves GET /metrics in Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WriteText(w)
}
