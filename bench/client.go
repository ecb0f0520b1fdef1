package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lineartime/internal/scenario"
	"lineartime/internal/serve"
)

// The 429 retry policy, the same as cmd/loadgen's: queue backpressure
// is transient, so a request retries up to maxRetryAttempts times with
// exponential backoff from retryBase capped at retryCap, jittered to
// half-to-full of the backoff. A request that exhausts its retries is
// a failed op.
const (
	maxRetryAttempts = 6
	retryBase        = 5 * time.Millisecond
	retryCap         = 200 * time.Millisecond
)

// rederiveEvery is the sampling stride of the byte-for-byte check:
// one cold response in this many is kept and re-derived in-process
// after the timed window.
const rederiveEvery = 64

// outcome is what one timed call reports back to the measuring loop.
type outcome struct {
	latency time.Duration
	ops     int
	failed  int
	retries int
}

// newHTTPClient returns a client that keeps one keep-alive connection
// per closed-loop goroutine.
func newHTTPClient(clients int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
		},
	}
}

// runEnvelope is the part of a /v1/run response the output checks
// read. Unknown fields are skipped by the decoder, so the benchmark
// depends only on these names of the wire format.
type runEnvelope struct {
	Key    string `json:"key"`
	Report struct {
		Metrics struct {
			Rounds   int   `json:"rounds"`
			Messages int64 `json:"messages"`
			Bits     int64 `json:"bits"`
		} `json:"metrics"`
		Crashed   []int `json:"crashed"`
		Consensus *struct {
			Decisions []int `json:"decisions"`
			Agreement bool  `json:"agreement"`
			Validity  bool  `json:"validity"`
		} `json:"consensus"`
	} `json:"report"`
}

// checkGuarantee verifies the paper's consensus guarantee on a report
// whose crash count is within t: agreement, validity, and termination
// (the run ended — it has rounds — and every node that did not crash
// decided).
func (e *runEnvelope) checkGuarantee() error {
	c := e.Report.Consensus
	if c == nil {
		return fmt.Errorf("no consensus outcome")
	}
	if !c.Agreement || !c.Validity {
		return fmt.Errorf("agreement=%v validity=%v", c.Agreement, c.Validity)
	}
	if e.Report.Metrics.Rounds <= 0 {
		return fmt.Errorf("no rounds")
	}
	crashed := make(map[int]bool, len(e.Report.Crashed))
	for _, v := range e.Report.Crashed {
		crashed[v] = true
	}
	for v, d := range c.Decisions {
		if d < 0 && !crashed[v] {
			return fmt.Errorf("node %d neither crashed nor decided", v)
		}
	}
	return nil
}

// serveTarget drives one daemon with one workload's request stream and
// checks every response.
type serveTarget struct {
	w      *workload
	seed   uint64
	client *http.Client
	url    string

	// fills, non-nil on serve-hot only, holds the warm-up bodies by
	// key: every later response must be byte-identical to the fill of
	// its key.
	fills map[string][]byte

	failureLog
	// sampled are the cold responses kept for re-derivation.
	sampled []sampledResponse
}

type sampledResponse struct {
	op   op
	body []byte
}

// failureLog keeps the first few failed checks verbatim for the
// report; its mutex also guards the embedding target's sampled ops.
type failureLog struct {
	mu    sync.Mutex
	notes []string
}

func (l *failureLog) note(format string, args ...any) {
	l.mu.Lock()
	if len(l.notes) < 8 {
		l.notes = append(l.notes, fmt.Sprintf(format, args...))
	}
	l.mu.Unlock()
}

// post sends the request, retrying 429s, and returns the final status
// and body along with the client-side latency of the whole exchange.
func (t *serveTarget) post(body []byte) (status int, resp []byte, retries int, latency time.Duration) {
	start := time.Now()
	for attempt := 0; ; attempt++ {
		r, err := t.client.Post(t.url, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, nil, retries, time.Since(start)
		}
		resp, err = io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			return 0, nil, retries, time.Since(start)
		}
		if r.StatusCode != http.StatusTooManyRequests || attempt >= maxRetryAttempts {
			return r.StatusCode, resp, retries, time.Since(start)
		}
		retries++
		backoff := retryBase << attempt
		if backoff > retryCap {
			backoff = retryCap
		}
		time.Sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1)))
	}
}

// do runs op i of the stream and checks its response.
func (t *serveTarget) do(i int) outcome {
	o, err := t.w.op(t.seed, i)
	if err != nil {
		t.note("op %d: generate: %v", i, err)
		return outcome{ops: 1, failed: 1}
	}
	status, body, retries, latency := t.post(o.body)
	out := outcome{latency: latency, ops: 1, retries: retries}
	if err := t.check(o, status, body); err != nil {
		t.note("op %d: %v", i, err)
		out.failed = 1
	}
	return out
}

func (t *serveTarget) check(o op, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.120s", status, body)
	}
	if t.fills != nil {
		t.mu.Lock()
		fill, ok := t.fills[o.key]
		t.mu.Unlock()
		if ok {
			// The fill was parsed and key-checked when it was stored.
			if !bytes.Equal(body, fill) {
				return fmt.Errorf("body differs from the warm-up fill of %s", o.key)
			}
			return nil
		}
	}
	var env runEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("response does not parse: %v", err)
	}
	if env.Key != o.key {
		return fmt.Errorf("key %s, want %s", env.Key, o.key)
	}
	if t.w.guaranteed {
		if err := env.checkGuarantee(); err != nil {
			return fmt.Errorf("guarantee: %v", err)
		}
	}
	t.mu.Lock()
	switch {
	case t.fills != nil:
		// First sight of a working-set key: the warm-up fill.
		t.fills[o.key] = body
	case o.index%rederiveEvery == 0:
		t.sampled = append(t.sampled, sampledResponse{op: o, body: body})
	}
	t.mu.Unlock()
	return nil
}

// verify re-derives the responses sampled since the last call
// in-process — scenario.Run plus the daemon's own encoder — and counts
// every one that does not match byte for byte. It runs between timed
// windows, never inside one.
func (t *serveTarget) verify() (failed int) {
	t.mu.Lock()
	sampled := t.sampled
	t.sampled = nil
	t.mu.Unlock()
	for _, s := range sampled {
		if err := rederive(s.op, s.body); err != nil {
			t.note("op %d: %v", s.op.index, err)
			failed++
		}
	}
	return failed
}

func rederive(o op, body []byte) error {
	rep, err := scenario.Run(o.spec)
	if err != nil {
		return fmt.Errorf("re-derive: %v", err)
	}
	want, err := serve.EncodeRunResponse(o.key, rep)
	if err != nil {
		return fmt.Errorf("re-derive: %v", err)
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("response differs from the in-process re-derivation of %s", o.key)
	}
	return nil
}

// repetition is one timed window's raw result.
type repetition struct {
	wall      time.Duration
	cpu       float64 // CPU seconds of the program under test
	ops       int
	failed    int
	retries   int
	latencies []float64 // ms, one per call
}

// runOps runs `clients` closed-loop goroutines over do. Each takes its
// next op index from claim and stops when claim reports false; calls
// in flight complete. pid is the process of the program under test,
// whose CPU time over the run is recorded.
func runOps(clients int, claim func() (int, bool), do func(i int) outcome, pid int) (repetition, error) {
	cpu0, err := procCPUSeconds(pid)
	if err != nil {
		return repetition{}, err
	}
	parts := make([]repetition, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(p *repetition) {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				out := do(i)
				p.ops += out.ops
				p.failed += out.failed
				p.retries += out.retries
				p.latencies = append(p.latencies, float64(out.latency)/float64(time.Millisecond))
			}
		}(&parts[c])
	}
	wg.Wait()
	rep := repetition{wall: time.Since(start)}
	cpu1, err := procCPUSeconds(pid)
	if err != nil {
		return repetition{}, err
	}
	rep.cpu = cpu1 - cpu0
	for _, p := range parts {
		rep.ops += p.ops
		rep.failed += p.failed
		rep.retries += p.retries
		rep.latencies = append(rep.latencies, p.latencies...)
	}
	return rep, nil
}

// runCount runs exactly ops [from, from+n) of the stream (the
// fixed-size warm-up).
func runCount(clients, from, n int, do func(i int) outcome, pid int) (repetition, error) {
	var next atomic.Int64
	next.Store(int64(from))
	claim := func() (int, bool) {
		i := int(next.Add(1) - 1)
		return i, i < from+n
	}
	return runOps(clients, claim, do, pid)
}

// runFor runs ops for a fixed duration (one timed repetition), taking
// indices from next so consecutive repetitions continue the stream.
func runFor(clients int, next *atomic.Int64, d time.Duration, do func(i int) outcome, pid int) (repetition, error) {
	deadline := time.Now().Add(d)
	claim := func() (int, bool) {
		if !time.Now().Before(deadline) {
			return 0, false
		}
		return int(next.Add(1) - 1), true
	}
	return runOps(clients, claim, do, pid)
}
