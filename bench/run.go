package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// processStart approximates the start of this process: main's package
// variables initialize last, after every imported package's init.
// batch-lanes counts setup_s from here.
var processStart = time.Now()

// runConfig is how one workload is measured.
type runConfig struct {
	seed uint64
	// reps timed repetitions of repLen each; the committed shape is 5
	// repetitions, whose length BENCHMARK.json's run_seconds fixes.
	reps   int
	repLen time.Duration
	// setups is how many times set-up (fresh process, warm-up) runs;
	// setup_s is the median and the last set-up is the one measured.
	setups int
	// trace adds the per-layer metrics: the traced in-process pass and
	// the access-log repetition, both after the end-to-end measurement.
	trace    bool
	traceOut string
}

// e2eValue is one end-to-end metric of one workload: the reported
// value plus the per-repetition samples it summarizes and their
// interquartile range, which -compare uses to tell "same" from
// "unresolved".
type e2eValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	IQR     float64   `json:"iqr"`
	Samples []float64 `json:"samples"`
}

type layerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything measured on one workload.
type workloadResult struct {
	Name    string  `json:"name"`
	Why     string  `json:"why"`
	TailPct float64 `json:"tail_pct"`
	Clients int     `json:"clients"`
	// Attempted and Failed count ops of the measured set-up: warm-up
	// plus every timed repetition. ErrorRate is their ratio.
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	ErrorRate float64 `json:"error_rate"`
	// LatencySamples is the pooled client-side sample count the
	// latency percentiles are exact over.
	LatencySamples int     `json:"latency_samples"`
	BuildSeconds   float64 `json:"build_s"`
	// Notes are the first few failed checks, verbatim.
	Notes    []string              `json:"notes,omitempty"`
	EndToEnd map[string]e2eValue   `json:"end_to_end"`
	PerLayer map[string]layerValue `json:"per_layer,omitempty"`
}

// target is the program under test as the measuring loop sees it: the
// daemon behind its HTTP surface, or the library in this process.
type target interface {
	do(i int) outcome
	// verify runs the deferred output checks between timed windows and
	// returns how many sampled ops failed them.
	verify() int
}

// measured is the raw material of the end-to-end metrics.
type measured struct {
	setups  []float64
	warmup  repetition
	reps    []repetition
	peakRSS float64 // MB, after the last repetition
	failedV int     // ops that failed a deferred check
	// before and after are the /metrics sums around the timed window
	// (serve workloads); scrapeMS the time of each scrape.
	before, after map[string]float64
	scrapeMS      []float64
}

// runWorkload measures one workload end to end and, with cfg.trace,
// layer by layer.
func runWorkload(w *workload, cfg runConfig) (*workloadResult, error) {
	res := &workloadResult{Name: w.name, Why: w.why, TailPct: w.tailPct, Clients: w.clients}
	var (
		m   *measured
		bin string
		err error
	)
	if w.batch != nil {
		t := &lanesTarget{w: w, seed: cfg.seed}
		m, err = measureLanes(w, t, cfg)
		res.Notes = t.notes
	} else {
		var built time.Duration
		if bin, built, err = buildDaemon(); err != nil {
			return nil, err
		}
		res.BuildSeconds = built.Seconds()
		var t *serveTarget
		if m, t, err = measureServe(w, bin, cfg); err == nil {
			res.Notes = t.notes
		}
	}
	if err != nil {
		return nil, err
	}

	layers := make(map[string]float64, len(perLayer))
	if m.before != nil {
		scrapedLayers(layers, m)
		if err := checkScrape(w, layers); err != nil {
			res.Notes = append(res.Notes, err.Error())
			m.failedV++
		}
	}
	res.summarize(w, m)
	layers[metricErrorRate] = res.ErrorRate
	layers["client.retries_429"] = float64(totalRetries(m))

	if cfg.trace {
		tr := &tracer{workload: w.name, t0: time.Now()}
		if err := tracedPass(w, cfg.seed, tr, layers); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		if w.name == "serve-hot" {
			layers["serve.http_overhead_us"] = res.EndToEnd["lat_p50_ms"].Value*1e3 - layers["serve.handler_us"]
			us, err := accessLogCost(w, bin, cfg, m)
			if err != nil {
				return nil, fmt.Errorf("access-log repetition: %w", err)
			}
			layers["serve.accesslog_us_per_req"] = us
		}
		if cfg.traceOut != "" {
			if err := tr.writeFile(cfg.traceOut); err != nil {
				return nil, err
			}
		}
		res.PerLayer = make(map[string]layerValue, len(perLayer))
		for _, d := range perLayer {
			res.PerLayer[d.Name] = layerValue{Value: layers[d.Name], Unit: d.Unit}
		}
	}
	return res, nil
}

func totalRetries(m *measured) int {
	n := m.warmup.retries
	for _, r := range m.reps {
		n += r.retries
	}
	return n
}

// setUpServe starts a fresh daemon and runs the workload's warm-up
// against it, returning the wall time from exec to warm-up complete.
func setUpServe(w *workload, bin string, client *http.Client, seed uint64, extra ...string) (*daemon, *serveTarget, repetition, float64, error) {
	d, err := startDaemon(bin, client, append(extra, w.daemonArgs...)...)
	if err != nil {
		return nil, nil, repetition{}, 0, err
	}
	t := &serveTarget{w: w, seed: seed, client: client, url: d.base + "/v1/run"}
	if w.hitRatio == 1 {
		t.fills = make(map[string][]byte, w.warmup)
	}
	warm, err := runCount(w.clients, 0, w.warmup, t.do, d.pid())
	if err != nil {
		d.stop()
		return nil, nil, repetition{}, 0, err
	}
	return d, t, warm, time.Since(d.started).Seconds(), nil
}

func measureServe(w *workload, bin string, cfg runConfig) (*measured, *serveTarget, error) {
	client := newHTTPClient(w.clients)
	defer client.CloseIdleConnections()
	m := &measured{}
	var (
		d *daemon
		t *serveTarget
	)
	for s := 0; s < cfg.setups; s++ {
		if d != nil {
			d.stop()
		}
		var (
			secs float64
			err  error
		)
		d, t, m.warmup, secs, err = setUpServe(w, bin, client, cfg.seed)
		if err != nil {
			return nil, nil, err
		}
		m.setups = append(m.setups, secs)
	}
	defer d.stop()
	m.failedV += t.verify()

	var err error
	var took time.Duration
	if m.before, took, err = scrape(client, d.base); err != nil {
		return nil, t, err
	}
	m.scrapeMS = append(m.scrapeMS, took.Seconds()*1e3)
	if err := timedReps(w, t, cfg, m, d.pid()); err != nil {
		return nil, t, err
	}
	if m.after, took, err = scrape(client, d.base); err != nil {
		return nil, t, err
	}
	m.scrapeMS = append(m.scrapeMS, took.Seconds()*1e3)
	for i := 0; i < 3; i++ {
		if _, took, err = scrape(client, d.base); err != nil {
			return nil, t, err
		}
		m.scrapeMS = append(m.scrapeMS, took.Seconds()*1e3)
	}
	return m, t, nil
}

// timedReps runs the timed repetitions, continuing the op stream after
// the warm-up and running the deferred checks between them, then reads
// the peak RSS.
func timedReps(w *workload, t target, cfg runConfig, m *measured, pid int) error {
	var next atomic.Int64
	next.Store(int64(w.warmup))
	for r := 0; r < cfg.reps; r++ {
		rep, err := runFor(w.clients, &next, cfg.repLen, t.do, pid)
		if err != nil {
			return err
		}
		if rep.ops == 0 {
			return fmt.Errorf("repetition %d of %s completed no op in %v", r, w.name, cfg.repLen)
		}
		m.reps = append(m.reps, rep)
		m.failedV += t.verify()
	}
	var err error
	m.peakRSS, err = procPeakRSSMB(pid)
	return err
}

// measureLanes measures batch-lanes in this process. Further set-up
// samples come from fresh child processes that only set up, since a
// library cannot be set up twice in one process.
func measureLanes(w *workload, t *lanesTarget, cfg runConfig) (*measured, error) {
	m := &measured{}
	var err error
	if m.warmup, err = runCount(w.clients, 0, w.warmup, t.do, os.Getpid()); err != nil {
		return nil, err
	}
	m.setups = append(m.setups, time.Since(processStart).Seconds())
	m.failedV += t.verify()
	for s := 1; s < cfg.setups; s++ {
		secs, err := lanesSetupChild(w, cfg.seed)
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, secs)
	}
	if err := timedReps(w, t, cfg, m, os.Getpid()); err != nil {
		return nil, err
	}
	return m, nil
}

// lanesSetupChild re-executes this binary to set up batch-lanes once
// in a fresh process and report how long that took.
func lanesSetupChild(w *workload, seed uint64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-setup-only", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// setupOnly is the child side of lanesSetupChild.
func setupOnly(w *workload, seed uint64) (float64, error) {
	t := &lanesTarget{w: w, seed: seed}
	warm, err := runCount(w.clients, 0, w.warmup, t.do, os.Getpid())
	if err != nil {
		return 0, err
	}
	if warm.failed > 0 {
		return 0, fmt.Errorf("set-up failed %d ops: %v", warm.failed, t.notes)
	}
	return time.Since(processStart).Seconds(), nil
}

// summarize turns the raw repetitions into the end-to-end metrics.
func (res *workloadResult) summarize(w *workload, m *measured) {
	res.Attempted, res.Failed = m.warmup.ops, m.warmup.failed+m.failedV
	var pooled, thr, p50, tail, cpu []float64
	for _, r := range m.reps {
		res.Attempted += r.ops
		res.Failed += r.failed
		lat := sortedCopy(r.latencies)
		pooled = append(pooled, lat...)
		thr = append(thr, float64(r.ops-r.failed)/r.wall.Seconds())
		p50 = append(p50, percentile(lat, 50))
		tail = append(tail, percentile(lat, w.tailPct))
		cpu = append(cpu, r.cpu*1e3/float64(r.ops))
	}
	sort.Float64s(pooled)
	res.LatencySamples = len(pooled)
	res.ErrorRate = float64(res.Failed) / float64(res.Attempted)

	values := map[string]float64{
		"setup_s":          median(m.setups),
		"throughput_ops_s": median(thr),
		"lat_p50_ms":       percentile(pooled, 50),
		"lat_tail_ms":      percentile(pooled, w.tailPct),
		"cpu_ms_per_op":    median(cpu),
		"peak_rss_mb":      m.peakRSS,
	}
	samples := map[string][]float64{
		"setup_s":          m.setups,
		"throughput_ops_s": thr,
		"lat_p50_ms":       p50,
		"lat_tail_ms":      tail,
		"cpu_ms_per_op":    cpu,
		"peak_rss_mb":      {m.peakRSS},
	}
	res.EndToEnd = make(map[string]e2eValue, len(endToEnd))
	for _, d := range endToEnd {
		res.EndToEnd[d.Name] = e2eValue{Value: values[d.Name], Unit: d.Unit, IQR: iqr(samples[d.Name]), Samples: samples[d.Name]}
	}
}

// scrapedLayers derives the serve counters from the /metrics sums
// around the timed window. A family the daemon does not export reads
// as 0 on both sides and so as 0 here.
func scrapedLayers(layers map[string]float64, m *measured) {
	delta := func(name string) float64 { return m.after[name] - m.before[name] }
	hits, misses := delta("lineartime_cache_hits_total"), delta("lineartime_cache_misses_total")
	if hits+misses > 0 {
		layers["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	layers["serve.cache_evictions"] = delta("lineartime_cache_evictions_total")
	layers["serve.coalesced"] = delta("lineartime_coalesced_total")
	layers["serve.queue_rejected"] = delta("lineartime_queue_rejected_total")
	layers["serve.engine_runs"] = delta("lineartime_runs_total")
	layers["obs.metrics_scrape_ms"] = median(m.scrapeMS)
}

// checkScrape holds the workload to the cache behaviour it is defined
// by: a run that measured something else is not a run of this workload.
func checkScrape(w *workload, layers map[string]float64) error {
	ratio, evictions := layers["serve.cache_hit_ratio"], layers["serve.cache_evictions"]
	if math.Abs(ratio-w.hitRatio) > 1e-9 {
		return fmt.Errorf("%s: cache hit ratio %.4f over the timed window, want %.0f", w.name, ratio, w.hitRatio)
	}
	if w.evicts && evictions == 0 {
		return fmt.Errorf("%s: no cache evictions over the timed window", w.name)
	}
	if !w.evicts && evictions != 0 {
		return fmt.Errorf("%s: %.0f cache evictions over the timed window, want 0", w.name, evictions)
	}
	return nil
}

// accessLogCost runs one more serve-hot repetition against a daemon
// started with -log-format json and returns how many microseconds of
// client-side service time per request the access log adds over the
// default run m: clients × wall / ops on each side.
func accessLogCost(w *workload, bin string, cfg runConfig, m *measured) (float64, error) {
	client := newHTTPClient(w.clients)
	defer client.CloseIdleConnections()
	d, t, _, _, err := setUpServe(w, bin, client, cfg.seed, "-log-format", "json")
	if err != nil {
		return 0, err
	}
	defer d.stop()
	var next atomic.Int64
	next.Store(int64(w.warmup))
	rep, err := runFor(w.clients, &next, cfg.repLen, t.do, d.pid())
	if err != nil {
		return 0, err
	}
	if rep.ops == 0 || rep.failed > 0 {
		return 0, fmt.Errorf("%d ops, %d failed: %v", rep.ops, rep.failed, t.notes)
	}
	var wall time.Duration
	var ops int
	for _, r := range m.reps {
		wall += r.wall
		ops += r.ops
	}
	perReq := func(wall time.Duration, ops int) float64 {
		return float64(w.clients) * float64(wall) / float64(time.Microsecond) / float64(ops)
	}
	return perReq(rep.wall, rep.ops) - perReq(wall, ops), nil
}
