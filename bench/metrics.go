package main

// metricDef declares one benchmark metric. The tables below are the
// benchmark's vocabulary: BENCHMARK.json repeats name/unit/better (and
// the bound of each end-to-end metric), and a unit test keeps the two
// from drifting apart. layer and moves are the interaction table —
// which module a per-layer number belongs to and which end-to-end
// metric it should move — and travel in every result file.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Layer  string  `json:"layer,omitempty"`
	Moves  string  `json:"moves,omitempty"`
	On     string  `json:"on,omitempty"`
}

// errorRateBound is the absolute amount error_rate may rise before it
// is a regression. error_rate is 0 at the seed, so a share of the
// parent's value cannot bound it; for the same reason BENCHMARK.json
// lists it without a bound and the driver contract carries it as
// failed/attempted.
const errorRateBound = 0.001

const metricErrorRate = "error_rate"

// endToEnd are the user-visible metrics, reported for every workload.
//
// Every bound is the widest the benchmark contract admits, because
// that is what the 2-core sandbox the benchmark was sized on can hold
// (README.md, "End-to-end metrics", has the measurements): its own
// speed moves by 10–20 % for minutes at a time, so anything tighter
// would sit inside the noise.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lat_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer metrics of the traced pass, the
// /metrics scrapes and the generator's own counters. A layer the
// workload never enters reports 0.
var perLayer = []metricDef{
	{Name: metricErrorRate, Unit: "ratio", Better: "lower", Layer: "client", Moves: "end-to-end: (non-200 + exhausted 429 retries + failed output checks) / attempted", On: "all"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "lat_p50_ms, throughput_ops_s", On: "serve-hot"},
	{Name: "serve.handler_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "lat_p50_ms", On: "serve-*"},
	{Name: "serve.decode_spec_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "lat_p50_ms, cpu_ms_per_op", On: "serve-hot"},
	{Name: "scenario.key_us", Unit: "us", Better: "lower", Layer: "scenario", Moves: "lat_p50_ms", On: "serve-hot"},
	{Name: "serve.cache_get_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "lat_p50_ms", On: "serve-hot"},
	{Name: "serve.cache_put_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "lat_tail_ms", On: "serve-heavy"},
	{Name: "serve.encode_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "lat_p50_ms, cpu_ms_per_op", On: "serve-heavy"},
	{Name: "serve.body_bytes", Unit: "bytes", Better: "lower", Layer: "serve", Moves: "lat_p50_ms, cpu_ms_per_op", On: "serve-heavy"},
	{Name: "consensus.topology_ms", Unit: "ms", Better: "lower", Layer: "consensus", Moves: "throughput_ops_s, lat_p50_ms, cpu_ms_per_op", On: "serve-cold; flat on serve-heavy, serve-hot, batch-lanes"},
	{Name: "scenario.run_ms", Unit: "ms", Better: "lower", Layer: "scenario", Moves: "throughput_ops_s, lat_p50_ms", On: "serve-cold, serve-heavy"},
	{Name: "scenario.run_rest_ms", Unit: "ms", Better: "lower", Layer: "scenario", Moves: "throughput_ops_s, lat_p50_ms", On: "serve-heavy (almost all of run_ms), serve-cold (about half)"},
	{Name: "scenario.alloc_mb_per_run", Unit: "MB", Better: "lower", Layer: "scenario", Moves: "cpu_ms_per_op, peak_rss_mb, lat_tail_ms", On: "serve-heavy, batch-lanes"},
	{Name: "scenario.allocs_per_run", Unit: "count", Better: "lower", Layer: "scenario", Moves: "cpu_ms_per_op, peak_rss_mb, lat_tail_ms", On: "serve-heavy, batch-lanes"},
	{Name: "sim.rounds_per_run", Unit: "count", Better: "lower", Layer: "sim", Moves: "none: simulated statistic, identical across commits", On: "cold workloads"},
	{Name: "sim.msgs_per_run", Unit: "count", Better: "lower", Layer: "sim", Moves: "none: simulated statistic, identical across commits", On: "cold workloads"},
	{Name: "sim.bits_per_run", Unit: "count", Better: "lower", Layer: "sim", Moves: "none: simulated statistic, identical across commits", On: "cold workloads"},
	{Name: "sim.ns_per_msg", Unit: "ns", Better: "lower", Layer: "sim", Moves: "throughput_ops_s", On: "serve-heavy, batch-lanes"},
	{Name: "scenario.batch_call_ms", Unit: "ms", Better: "lower", Layer: "scenario", Moves: "throughput_ops_s", On: "batch-lanes"},
	{Name: "scenario.batch_speedup_vs_scalar", Unit: "x", Better: "higher", Layer: "scenario", Moves: "throughput_ops_s", On: "batch-lanes"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "serve", Moves: "explains throughput_ops_s", On: "1 on serve-hot, 0 on serve-cold and serve-heavy"},
	{Name: "serve.cache_evictions", Unit: "count", Better: "lower", Layer: "serve", Moves: "explains throughput_ops_s", On: "0 on serve-hot, > 0 on serve-cold and serve-heavy"},
	{Name: "serve.coalesced", Unit: "count", Better: "lower", Layer: "serve", Moves: "explains throughput_ops_s", On: "0 everywhere (keys distinct or cached)"},
	{Name: "serve.queue_rejected", Unit: "count", Better: "lower", Layer: "serve", Moves: "explains error_rate", On: "0 everywhere (clients ≤ workers)"},
	{Name: "serve.engine_runs", Unit: "count", Better: "lower", Layer: "serve", Moves: "explains throughput_ops_s", On: "0 on serve-hot, one per op on cold workloads"},
	{Name: "client.retries_429", Unit: "count", Better: "lower", Layer: "client", Moves: "error_rate, lat_tail_ms", On: "serve-*"},
	{Name: "obs.metrics_scrape_ms", Unit: "ms", Better: "lower", Layer: "obs", Moves: "none: guards exposition cost", On: "serve-*"},
	{Name: "serve.accesslog_us_per_req", Unit: "us", Better: "lower", Layer: "serve", Moves: "lat_p50_ms", On: "serve-hot"},
}
