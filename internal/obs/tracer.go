package obs

import (
	"sync"
	"time"
)

// Stage identifies one phase of a scenario run. The engines report
// StageSetup (arena reset) and StageRounds; the scenario layer adds
// StageMaterialize before them (spec → overlays, protocol stack and
// fault layer), and StageDecode (result materialisation) or StageMerge
// (sliced lane fan-in) after.
type Stage uint8

const (
	StageSetup Stage = iota
	StageRounds
	StageDecode
	StageMerge
	StageMaterialize
	numStages
)

// String returns the stage label used in metric labels and trace spans.
func (s Stage) String() string {
	switch s {
	case StageSetup:
		return "setup"
	case StageRounds:
		return "rounds"
	case StageDecode:
		return "decode"
	case StageMerge:
		return "merge"
	case StageMaterialize:
		return "materialize"
	}
	return "unknown"
}

// Engine identifies which simulator entry point executed a run.
type Engine uint8

const (
	EngineSequential Engine = iota
	EngineSliced
	numEngines
)

// String returns the engine label.
func (e Engine) String() string {
	switch e {
	case EngineSequential:
		return "sequential"
	case EngineSliced:
		return "sliced"
	}
	return "unknown"
}

// Outcome classifies how a run ended.
type Outcome uint8

const (
	OutcomeOK Outcome = iota
	OutcomeNoTermination
	OutcomeError
	numOutcomes
)

// String returns the outcome label.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeNoTermination:
		return "no_termination"
	case OutcomeError:
		return "error"
	}
	return "unknown"
}

// RunTracer is the stage-level hook the engines and the scenario layer
// call around every run. Implementations must be allocation-free and
// concurrency-safe: the engines call these from the hot path with a
// tracer installed, and the 0-alloc steady-state guards run with one.
//
// A nil tracer is the fast path — every call site is guarded by an
// `if tr != nil` branch, so disabled tracing costs only predictable
// branches.
type RunTracer interface {
	// StageDuration records time spent in one stage of a run.
	StageDuration(s Stage, d time.Duration)
	// RunDone records a completed run: which engine, how it ended,
	// how many rounds it took, and its wall-clock duration.
	RunDone(e Engine, o Outcome, rounds int, d time.Duration)
	// RoundsExecuted splits the simulated rounds of a completed
	// sequential-engine run (the only engine that can fast-forward; see
	// sim.Sleeper) three ways: those the engine
	// stepped machines in, the quiet ones no machine stepped in (silent
	// rounds jumped over and declared crash rounds applied in passing),
	// and the steady ones whose traffic repeated an executed template.
	RoundsExecuted(executed, quiet, repeated int)
}

// EngineTracer is the metrics-backed RunTracer: pre-registered handles
// indexed by the Stage/Engine/Outcome enums, so the per-run path does
// no map lookups and allocates nothing.
type EngineTracer struct {
	stage    [numStages]*Histogram
	runs     [numEngines][numOutcomes]*Counter
	rounds   *Histogram
	duration *Histogram
	executed *Counter
	quiet    *Counter
	repeated *Counter
}

// NewEngineTracer registers the engine-run metric families on reg and
// returns the tracer holding their handles.
func NewEngineTracer(reg *Registry) *EngineTracer {
	t := &EngineTracer{}
	for s := Stage(0); s < numStages; s++ {
		t.stage[s] = reg.Histogram(
			"lineartime_run_stage_duration_seconds",
			"Wall-clock seconds spent per run stage.",
			LatencyBuckets(), L{"stage", s.String()})
	}
	for e := Engine(0); e < numEngines; e++ {
		for o := Outcome(0); o < numOutcomes; o++ {
			t.runs[e][o] = reg.Counter(
				"lineartime_runs_total",
				"Completed simulation runs by engine and outcome.",
				L{"engine", e.String()}, L{"outcome", o.String()})
		}
	}
	t.rounds = reg.Histogram(
		"lineartime_run_rounds",
		"Rounds executed per simulation run.",
		RoundBuckets())
	t.duration = reg.Histogram(
		"lineartime_run_duration_seconds",
		"End-to-end wall-clock seconds per simulation run.",
		LatencyBuckets())
	const roundsHelp = "Simulated rounds of sequential- and parallel-engine runs, each counted once: executed (machines stepped), quiet (silent rounds and crash rounds applied in passing) or repeated (steady rounds booked as a copy of an executed template)."
	t.executed = reg.Counter("lineartime_engine_rounds_total", roundsHelp, L{"state", "executed"})
	t.quiet = reg.Counter("lineartime_engine_rounds_total", roundsHelp, L{"state", "quiet"})
	t.repeated = reg.Counter("lineartime_engine_rounds_total", roundsHelp, L{"state", "repeated"})
	return t
}

// StageDuration implements RunTracer.
func (t *EngineTracer) StageDuration(s Stage, d time.Duration) {
	if s < numStages {
		t.stage[s].Observe(d.Seconds())
	}
}

// RunDone implements RunTracer.
func (t *EngineTracer) RunDone(e Engine, o Outcome, rounds int, d time.Duration) {
	if e < numEngines && o < numOutcomes {
		t.runs[e][o].Inc()
	}
	t.rounds.Observe(float64(rounds))
	t.duration.Observe(d.Seconds())
}

// RoundsExecuted implements RunTracer.
func (t *EngineTracer) RoundsExecuted(executed, quiet, repeated int) {
	t.executed.Add(int64(executed))
	t.quiet.Add(int64(quiet))
	t.repeated.Add(int64(repeated))
}

// Span is one recorded stage timing inside a Trace.
type Span struct {
	Name       string  `json:"name"`
	DurationMS float64 `json:"duration_ms"`
}

// Trace is the JSON-facing transcript of one run's stage timings,
// emitted by cmd/linearsim under the envelope's "trace" key.
type Trace struct {
	Engine  string `json:"engine"`
	Outcome string `json:"outcome"`
	Rounds  int    `json:"rounds"`
	// RoundsExecuted is how many of Rounds the engine stepped; the rest
	// were fast-forwarded, RoundsRepeated of them as copies of an
	// executed template and the others as quiet.
	RoundsExecuted int     `json:"rounds_executed,omitempty"`
	RoundsRepeated int     `json:"rounds_repeated,omitempty"`
	DurationMS     float64 `json:"duration_ms"`
	Spans          []Span  `json:"spans"`
}

// SpanTracer is a RunTracer that collects stage timings into a Trace
// for human or JSON output. It is mutex-guarded, not allocation-free:
// use it for CLI tracing, not inside alloc guards.
type SpanTracer struct {
	mu    sync.Mutex
	trace Trace
}

// NewSpanTracer returns an empty span collector.
func NewSpanTracer() *SpanTracer { return &SpanTracer{} }

// StageDuration implements RunTracer.
func (t *SpanTracer) StageDuration(s Stage, d time.Duration) {
	t.mu.Lock()
	t.trace.Spans = append(t.trace.Spans, Span{
		Name:       s.String(),
		DurationMS: float64(d.Nanoseconds()) / 1e6,
	})
	t.mu.Unlock()
}

// RunDone implements RunTracer.
func (t *SpanTracer) RunDone(e Engine, o Outcome, rounds int, d time.Duration) {
	t.mu.Lock()
	t.trace.Engine = e.String()
	t.trace.Outcome = o.String()
	t.trace.Rounds = rounds
	t.trace.DurationMS = float64(d.Nanoseconds()) / 1e6
	t.mu.Unlock()
}

// RoundsExecuted implements RunTracer.
func (t *SpanTracer) RoundsExecuted(executed, _, repeated int) {
	t.mu.Lock()
	t.trace.RoundsExecuted, t.trace.RoundsRepeated = executed, repeated
	t.mu.Unlock()
}

// Trace returns a copy of the collected trace.
func (t *SpanTracer) Trace() *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	cp := t.trace
	cp.Spans = append([]Span(nil), t.trace.Spans...)
	return &cp
}
