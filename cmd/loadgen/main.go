// Command loadgen is a closed-loop load generator for linearsimd: a
// fixed set of workers each keeps exactly one request in flight
// against a running daemon, so measured throughput is the server's,
// not the generator's queue depth. It drives two workloads —
//
//	cold-all-miss: every request is a distinct Spec (fresh seed), so
//	every response costs an engine run;
//	repeated-spec: every request is the same Spec, so after the first
//	miss the responses come from the content-addressed cache;
//
// and records req/s, p50/p99 latency and cache hit rate per workload
// into a bench file (BENCH_serve.json when committed), plus the
// repeated-vs-cold throughput ratio — the serving layer's cache
// leverage. A 429 (queue backpressure) is transient by design, so
// workers retry it with capped exponential backoff and jitter; only a
// request that exhausts its retries counts as rejected. Before
// measuring, it probes every daemon endpoint and fails on any
// non-200.
//
// -quick shortens the phases for CI and exits nonzero if the repeated
// workload saw no cache hits.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lineartime/internal/obs"
	"lineartime/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// The 429 retry policy: queue backpressure is transient, so each
// request retries up to maxRetryAttempts times with exponential
// backoff from retryBase, capped at retryCap, jittered to half-to-full
// of the backoff so synchronized workers do not re-collide.
const (
	maxRetryAttempts = 6
	retryBase        = 5 * time.Millisecond
	retryCap         = 200 * time.Millisecond
)

// WorkloadResult is one measured workload of the bench file.
type WorkloadResult struct {
	Name     string `json:"name"`
	Requests int64  `json:"requests"`
	Errors   int64  `json:"errors"`
	// Rejected counts requests that exhausted their 429 retries;
	// Retries counts the individual backoff-retried attempts.
	Rejected    int64   `json:"rejected_429"`
	Retries     int64   `json:"retries_429"`
	ReqPerSec   float64 `json:"req_per_sec"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	HitRate     float64 `json:"hit_rate"`
	DurationSec float64 `json:"duration_seconds"`
}

// BenchFile is the committed BENCH_serve.json schema.
type BenchFile struct {
	Schema      string           `json:"schema"`
	Go          string           `json:"go"`
	GoMaxProcs  int              `json:"gomaxprocs"`
	NumCPU      int              `json:"num_cpu"`
	Scenario    string           `json:"scenario"`
	N           int              `json:"n"`
	T           int              `json:"t"`
	Concurrency int              `json:"concurrency"`
	Workloads   []WorkloadResult `json:"workloads"`
	// SpeedupRepeatedVsCold is repeated-spec req/s over cold-all-miss
	// req/s: the cache leverage of the serving layer.
	SpeedupRepeatedVsCold float64 `json:"speedup_repeated_vs_cold,omitempty"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "http://127.0.0.1:8372", "daemon base URL")
		scen        = fs.String("scenario", "consensus/few-crashes", "registry scenario to request")
		n           = fs.Int("n", 256, "scenario size")
		t           = fs.Int("t", 50, "scenario fault bound")
		seed        = fs.Uint64("seed", 1, "base seed (cold workload increments from it)")
		fault       = fs.String("fault", "", "fault model override, CLI spelling (see linearsim -list)")
		concurrency = fs.Int("concurrency", 8, "closed-loop workers")
		duration    = fs.Duration("duration", 5*time.Second, "measurement window per workload")
		mode        = fs.String("mode", "both", "workloads: cold | repeated | both")
		out         = fs.String("o", "", "output file ('' = stdout)")
		quick       = fs.Bool("quick", false, "CI smoke: 1.5s phases (unless -duration is set) and a required nonzero hit rate")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *quick {
		explicit := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "duration" {
				explicit = true
			}
		})
		if !explicit {
			*duration = 1500 * time.Millisecond
		}
	}

	if *mode != "cold" && *mode != "repeated" && *mode != "both" {
		return fmt.Errorf("unknown mode %q", *mode)
	}

	client := &http.Client{Timeout: 30 * time.Second}
	if err := preflight(client, *addr, *scen, *n, *t, *seed); err != nil {
		return err
	}

	file := BenchFile{
		Schema:      "lineartime/bench_serve/v2",
		Go:          runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Scenario:    *scen,
		N:           *n,
		T:           *t,
		Concurrency: *concurrency,
	}

	base := serve.RunRequest{Scenario: *scen, N: *n, T: *t, Seed: *seed, Fault: *fault}
	var cold, repeated *WorkloadResult
	if *mode == "cold" || *mode == "both" {
		// Cold seeds start at a time-derived offset, away from the base
		// seed: the repeated phase's key is never pre-warmed by the cold
		// phase, and a re-run against a still-warm daemon issues fresh
		// Specs instead of silently measuring cache replays as engine
		// cost. The hit-rate check below backstops both.
		coldBase := base
		coldBase.Seed = uint64(time.Now().UnixNano())
		w := measure(client, *addr, coldBase, *concurrency, *duration, true)
		cold = &w
		file.Workloads = append(file.Workloads, w)
	}
	if *mode == "repeated" || *mode == "both" {
		w := measure(client, *addr, base, *concurrency, *duration, false)
		repeated = &w
		file.Workloads = append(file.Workloads, w)
	}
	if cold != nil && repeated != nil && cold.ReqPerSec > 0 {
		file.SpeedupRepeatedVsCold = repeated.ReqPerSec / cold.ReqPerSec
	}

	data, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}

	if repeated != nil && repeated.HitRate == 0 {
		return fmt.Errorf("repeated-spec workload saw no cache hits (requests=%d)", repeated.Requests)
	}
	if cold != nil && cold.HitRate > 0 {
		return fmt.Errorf("cold-all-miss workload hit the cache (hit rate %.3f) — its numbers are not engine cost", cold.HitRate)
	}
	for _, w := range file.Workloads {
		if w.Errors > 0 {
			return fmt.Errorf("workload %s had %d errored requests", w.Name, w.Errors)
		}
	}
	return nil
}

// preflight exercises every endpoint once and fails on any non-200:
// the smoke assertion of the CI serve job.
func preflight(client *http.Client, addr, scen string, n, t int, seed uint64) error {
	for _, path := range []string{"/healthz", "/readyz", "/v1/scenarios", "/statsz", "/metrics"} {
		resp, err := client.Get(addr + path)
		if err != nil {
			return fmt.Errorf("GET %s: %w", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	sweep := serve.SweepRequest{Scenario: scen, Seed: seed, Points: []serve.SweepPoint{{N: n, T: t}}}
	body, err := json.Marshal(sweep)
	if err != nil {
		return err
	}
	resp, err := client.Post(addr+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("POST /v1/sweep: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/sweep: status %d", resp.StatusCode)
	}
	return nil
}

// measure runs one closed-loop workload: concurrency workers, each
// issuing the next request the moment the previous response is fully
// read, until the window closes. cold gives every request a fresh seed
// (every Spec distinct); otherwise all requests share the base Spec.
func measure(client *http.Client, addr string, base serve.RunRequest, concurrency int, window time.Duration, cold bool) WorkloadResult {
	name := "repeated-spec"
	if cold {
		name = "cold-all-miss"
	}
	var (
		seedCtr  atomic.Uint64
		requests atomic.Int64
		hits     atomic.Int64
		errs     atomic.Int64
		rejected atomic.Int64
		retries  atomic.Int64
	)
	// Latencies go through the same histogram type and bucket layout the
	// daemon's /metrics uses for its request latencies, so loadgen's
	// p50/p99 and a scrape of the daemon measure on the same grid.
	// Observe is atomic; the workers share one histogram lock-free.
	lat := obs.NewHistogram(obs.LatencyBuckets())
	seedCtr.Store(base.Seed)
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				req := base
				if cold {
					// Distinct seed => distinct Spec.Key => guaranteed miss.
					req.Seed = seedCtr.Add(1)
				}
				body, err := json.Marshal(req)
				if err != nil {
					errs.Add(1)
					continue
				}
				start := time.Now()
				var status int
				var cacheHdr string
				gaveUp, cutOff := false, false
				for attempt := 0; ; attempt++ {
					resp, err := client.Post(addr+"/v1/run", "application/json", bytes.NewReader(body))
					if err != nil {
						status = 0
						break
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					status = resp.StatusCode
					cacheHdr = resp.Header.Get("X-Cache")
					if status != http.StatusTooManyRequests {
						break
					}
					// Backpressure is transient: back off and retry the same
					// request instead of failing it, up to the attempt cap
					// (and never past the measurement window: a request the
					// window closes on mid-retry has not exhausted its
					// retries, so it leaves the measurement uncounted).
					if !time.Now().Before(deadline) {
						cutOff = true
						break
					}
					if attempt >= maxRetryAttempts {
						gaveUp = true
						break
					}
					retries.Add(1)
					backoff := retryBase << attempt
					if backoff > retryCap {
						backoff = retryCap
					}
					time.Sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1)))
				}
				elapsed := time.Since(start)
				switch {
				case cutOff:
					continue
				case gaveUp:
					rejected.Add(1)
					continue
				case status == 0:
					errs.Add(1)
					continue
				case status != http.StatusOK:
					errs.Add(1)
					continue
				}
				requests.Add(1)
				if cacheHdr == "hit" {
					hits.Add(1)
				}
				lat.Observe(elapsed.Seconds())
			}
		}()
	}
	startAll := time.Now()
	wg.Wait()
	elapsed := time.Since(startAll)
	// The loop start predates startAll by a hair; use the window as the
	// floor so req/s is never inflated.
	if elapsed < window {
		elapsed = window
	}

	res := WorkloadResult{
		Name:        name,
		Requests:    requests.Load(),
		Errors:      errs.Load(),
		Rejected:    rejected.Load(),
		Retries:     retries.Load(),
		DurationSec: elapsed.Seconds(),
	}
	if res.Requests > 0 {
		res.ReqPerSec = float64(res.Requests) / elapsed.Seconds()
		res.HitRate = float64(hits.Load()) / float64(res.Requests)
	}
	res.P50Ms = lat.Quantile(0.50) * 1e3
	res.P99Ms = lat.Quantile(0.99) * 1e3
	return res
}
