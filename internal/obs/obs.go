// Package obs is the repo's dependency-free observability core: atomic
// counters, gauges, and fixed-bucket histograms that expose themselves
// in Prometheus text format through a Registry, plus the RunTracer hook
// the sim engines use to report per-stage timings.
//
// The package is deliberately a leaf: it imports only the standard
// library so the hot-path packages (internal/sim) can depend on it
// without cycles. Every instrument is safe for concurrent use, and the
// observation paths (Counter.Inc, Gauge.Set, Histogram.Observe) are
// allocation-free so they can sit inside the engines' 0-alloc steady
// state.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. The zero value is ready
// to use, but counters meant for exposition should be created through
// Registry.Counter so they carry HELP text and appear in /metrics.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative deltas are ignored — counters only go up.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 that can go up and down, stored as atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram with cumulative exposition in
// the Prometheus style: counts[i] holds observations <= bounds[i], and
// the final slot holds the +Inf overflow. Observe is allocation-free.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

// NewHistogram builds a histogram over the given strictly increasing
// upper bounds; Registry.Histogram registers one.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. No allocation, no locks.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// LatencyBuckets returns the shared request/run latency boundaries in
// seconds, from 100µs to 10s. The serve tier's request latencies and
// the tracer's stage timings share the set, so they land in comparable
// buckets.
func LatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// RoundBuckets returns boundaries for per-run round counts.
func RoundBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}
