package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"lineartime/internal/consensus"
	"lineartime/internal/scenario"
	"lineartime/internal/serve"
)

// The traced pass replays the first inputs of a workload's timed
// stream single-threaded in this process, with a span around each call
// into a layer's public functions. The program carries no spans of its
// own yet, so the layers inside a handler call are priced by calling
// the same public functions on the same inputs next to it: every span
// of an op is a child of the op's root span, and a layer's value is
// the median self time of its spans.
const (
	tracedServeOps   = 64
	tracedLanesCalls = 4
)

// benchCacheBytes sizes the bench-owned result cache the cache spans
// run against: the daemon's default budget.
const benchCacheBytes = 64 << 20

// span is one timed call: which op of which workload it belongs to,
// its name, the name of the span that caused it, and when it ran
// relative to the start of the traced pass.
type span struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Name     string `json:"name"`
	Parent   string `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out, if at all, when
// the benchmark ends.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

const rootSpan = "op"

// span times f as a span of op.
func (tr *tracer) span(op int, name, parent string, f func()) {
	start := time.Since(tr.t0)
	f()
	end := time.Since(tr.t0)
	tr.spans = append(tr.spans, span{Workload: tr.workload, Op: op, Name: name, Parent: parent, StartNS: int64(start), EndNS: int64(end)})
}

// selfTimes returns, per span name, every span's self time in
// nanoseconds: its duration minus the part its child spans cover. The
// pass is single-threaded, so the children of a span never overlap.
func (tr *tracer) selfTimes() map[string][]float64 {
	type opName struct {
		op   int
		name string
	}
	covered := make(map[opName]int64)
	for _, s := range tr.spans {
		covered[opName{s.Op, s.Parent}] += s.EndNS - s.StartNS
	}
	out := make(map[string][]float64)
	for _, s := range tr.spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNS-s.StartNS-covered[opName{s.Op, s.Name}]))
	}
	return out
}

func (tr *tracer) writeFile(path string) error {
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// allocDelta runs f and returns the bytes and objects it allocated.
func allocDelta(f func()) (allocBytes, objects float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc), float64(after.Mallocs - before.Mallocs)
}

// runStats accumulates what the traced runs report about themselves.
type runStats struct {
	rounds, msgs, bits   []float64
	allocMB, allocs      []float64
	runRestMS, bodyBytes []float64
	speedup              []float64
}

func (rs *runStats) addReport(rep *scenario.Report) {
	rs.rounds = append(rs.rounds, float64(rep.Metrics.Rounds))
	rs.msgs = append(rs.msgs, float64(rep.Metrics.Messages))
	rs.bits = append(rs.bits, float64(rep.Metrics.Bits))
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// tracedPass fills layers with the per-layer metrics of w.
func tracedPass(w *workload, seed uint64, tr *tracer, layers map[string]float64) error {
	var rs runStats
	var err error
	if w.batch != nil {
		err = tracedLanes(w, seed, tr, &rs)
	} else {
		err = tracedServe(w, seed, tr, &rs)
	}
	if err != nil {
		return err
	}
	self := tr.selfTimes()
	med := func(name string, unitNS float64) float64 { return median(self[name]) / unitNS }
	layers["serve.handler_us"] = med("serve.handler", 1e3)
	layers["serve.decode_spec_us"] = med("serve.decode_spec", 1e3)
	layers["scenario.key_us"] = med("scenario.key", 1e3)
	layers["serve.cache_get_us"] = med("serve.cache_get", 1e3)
	layers["serve.cache_put_us"] = med("serve.cache_put", 1e3)
	layers["serve.encode_ms"] = med("serve.encode", 1e6)
	layers["serve.body_bytes"] = median(rs.bodyBytes)
	layers["consensus.topology_ms"] = med("consensus.topology", 1e6)
	layers["scenario.run_ms"] = med("scenario.run", 1e6)
	layers["scenario.run_rest_ms"] = median(rs.runRestMS)
	layers["scenario.alloc_mb_per_run"] = median(rs.allocMB)
	layers["scenario.allocs_per_run"] = median(rs.allocs)
	layers["sim.rounds_per_run"] = mean(rs.rounds)
	layers["sim.msgs_per_run"] = mean(rs.msgs)
	layers["sim.bits_per_run"] = mean(rs.bits)
	if msgs := mean(rs.msgs); msgs > 0 {
		layers["sim.ns_per_msg"] = median(rs.runRestMS) * 1e6 / msgs
	}
	layers["scenario.batch_call_ms"] = med("scenario.execute_batch", 1e6)
	layers["scenario.batch_speedup_vs_scalar"] = median(rs.speedup)
	return nil
}

// replay sends one request body through the in-process handler.
func replay(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
	return rec
}

// fillToCapacity stores body under enough synthetic keys to bring the
// cache to its budget, so that every later Put evicts — the steady
// state of serve-heavy. The cache keeps the slice it is given, so the
// fill costs bookkeeping, not 64 MiB.
func fillToCapacity(c *serve.Cache, body []byte) {
	for k := 0; k < benchCacheBytes/len(body)+16; k++ {
		c.Put(fmt.Sprintf("bench-fill-%d", k), body)
	}
}

func tracedServe(w *workload, seed uint64, tr *tracer, rs *runStats) error {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	h := srv.Handler()
	cache := serve.NewCache(benchCacheBytes, 0)
	hot := w.hitRatio == 1

	ops := make([]op, tracedServeOps)
	for i := range ops {
		o, err := w.op(seed, w.warmup+i)
		if err != nil {
			return err
		}
		ops[i] = o
		if !hot {
			continue
		}
		if _, filled := cache.Get(o.key); !filled {
			// Fill the server's cache and the bench-owned one with this
			// working-set key, outside any span.
			rec := replay(h, o.body)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("fill of %s: status %d", o.key, rec.Code)
			}
			cache.Put(o.key, rec.Body.Bytes())
		}
	}

	for i, o := range ops {
		var fail error
		tr.span(i, rootSpan, "", func() {
			rec := httptest.NewRecorder()
			hreq := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(o.body))
			tr.span(i, "serve.handler", rootSpan, func() { h.ServeHTTP(rec, hreq) })
			if rec.Code != http.StatusOK {
				fail = fmt.Errorf("op %d: handler status %d", i, rec.Code)
				return
			}

			var sp scenario.Spec
			tr.span(i, "serve.decode_spec", rootSpan, func() {
				var req serve.RunRequest
				if fail = json.Unmarshal(o.body, &req); fail == nil {
					sp, fail = specOf(req)
				}
			})
			if fail != nil {
				return
			}
			var key string
			tr.span(i, "scenario.key", rootSpan, func() { key = sp.Key() })
			if key != o.key {
				fail = fmt.Errorf("op %d: key %s, want %s", i, key, o.key)
				return
			}

			if hot {
				var body []byte
				tr.span(i, "serve.cache_get", rootSpan, func() { body, _ = cache.Get(key) })
				if !bytes.Equal(body, rec.Body.Bytes()) {
					fail = fmt.Errorf("op %d: handler body differs from the fill", i)
				}
				return
			}

			var rep *scenario.Report
			allocBytes, allocs := allocDelta(func() {
				tr.span(i, "scenario.run", rootSpan, func() { rep, fail = scenario.Run(sp) })
			})
			if fail != nil {
				return
			}
			tr.span(i, "consensus.topology", rootSpan, func() {
				_, fail = consensus.NewTopology(sp.N, sp.T, consensus.TopologyOptions{Seed: sp.Seed})
			})
			if fail != nil {
				return
			}
			var body []byte
			tr.span(i, "serve.encode", rootSpan, func() { body, fail = serve.EncodeRunResponse(key, rep) })
			if fail != nil {
				return
			}
			if !bytes.Equal(body, rec.Body.Bytes()) {
				fail = fmt.Errorf("op %d: handler body differs from the in-process re-derivation", i)
				return
			}
			if i == 0 && w.evicts {
				fillToCapacity(cache, body)
			}
			tr.span(i, "serve.cache_put", rootSpan, func() { cache.Put(key, body) })

			rs.addReport(rep)
			rs.allocMB = append(rs.allocMB, allocBytes/(1<<20))
			rs.allocs = append(rs.allocs, allocs)
			rs.bodyBytes = append(rs.bodyBytes, float64(len(body)))
		})
		if fail != nil {
			return fail
		}
	}
	if !hot {
		// run_rest pairs each op's run with the topology build of the
		// same (n, t, seed): what is left is protocol objects, rounds
		// and outcome.
		self := tr.selfTimes()
		for i := range self["scenario.run"] {
			rs.runRestMS = append(rs.runRestMS, (self["scenario.run"][i]-self["consensus.topology"][i])/1e6)
		}
	}
	return nil
}

func tracedLanes(w *workload, seed uint64, tr *tracer, rs *runStats) error {
	for i := 0; i < tracedLanesCalls; i++ {
		sps, err := w.batch(seed, w.warmup+i)
		if err != nil {
			return err
		}
		var fail error
		tr.span(i, rootSpan, "", func() {
			var reports []*scenario.Report
			var errs []error
			allocBytes, allocs := allocDelta(func() {
				tr.span(i, "scenario.execute_batch", rootSpan, func() { reports, errs = scenario.ExecuteBatch(sps) })
			})
			for l, err := range errs {
				if err != nil {
					fail = fmt.Errorf("call %d lane %d: %v", i, l, err)
					return
				}
			}
			tr.span(i, "scenario.run", rootSpan, func() { _, fail = scenario.Run(sps[0]) })
			if fail != nil {
				return
			}
			tr.span(i, "consensus.topology", rootSpan, func() {
				_, fail = consensus.NewTopology(sps[0].N, sps[0].T, consensus.TopologyOptions{Seed: sps[0].Seed})
			})
			if fail != nil {
				return
			}
			for _, rep := range reports {
				rs.addReport(rep)
			}
			rs.allocMB = append(rs.allocMB, allocBytes/(1<<20)/float64(len(sps)))
			rs.allocs = append(rs.allocs, allocs/float64(len(sps)))
		})
		if fail != nil {
			return fail
		}
	}
	// Per lane: the call's time less the one shared topology build,
	// spread over its lanes; and the speed-up over running the call's
	// lanes one scalar scenario.Run (of lane 0) at a time.
	self := tr.selfTimes()
	for i, call := range self["scenario.execute_batch"] {
		rs.runRestMS = append(rs.runRestMS, (call-self["consensus.topology"][i])/1e6/lanesPerCall)
		rs.speedup = append(rs.speedup, lanesPerCall*self["scenario.run"][i]/call)
	}
	return nil
}
