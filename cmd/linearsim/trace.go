package main

import (
	"fmt"
	"os"
	"strings"

	"lineartime/internal/obs"
	"lineartime/internal/scenario"
	"lineartime/internal/serve"
	"lineartime/internal/sim"
)

// output selects how a single run is rendered: the daemon's JSON
// envelope, the stage-timing + transcript trace, both (the trace rides
// the envelope's "trace" key), or the default text report.
type output struct {
	json  bool
	trace bool
}

// finishRun is the CLI's single run-and-render path. With -trace it
// installs the engine-level hooks on the spec — the transcript
// recorder (message/crash timeline) and the span tracer (per-stage
// wall-clock) — so tracing works for every scenario registry row, not
// just one hand-built stack. printText renders the problem-specific
// text report when JSON output is off.
func finishRun(sp scenario.Spec, out output, printText func(*scenario.Report)) error {
	var rec *recorder
	var spans *obs.SpanTracer
	if out.trace {
		rec = &recorder{sent: make([]int64, sp.N)}
		sp.Observer = rec
		spans = obs.NewSpanTracer()
		sp.Tracer = spans
	}
	r, err := scenario.Run(sp)
	if err != nil {
		return err
	}
	if out.json {
		var tr *obs.Trace
		if spans != nil {
			tr = spans.Trace()
		}
		return printJSONTrace(sp, r, tr)
	}
	printText(r)
	if out.trace {
		printTrace(rec, spans, r)
	}
	return nil
}

// recorder is the -trace transcript, fed by the engine's Observer
// hook: messages per round and per sender, and the crashes in the order
// the engine applied them. The engine calls it from one goroutine.
type recorder struct {
	sent     []int64
	perRound []int64
	crashes  []string // "node@rround"
	messages int64
}

var _ sim.Observer = (*recorder)(nil)

// OnMessage implements sim.Observer.
func (r *recorder) OnMessage(round int, env sim.Envelope) {
	for len(r.perRound) <= round {
		r.perRound = append(r.perRound, 0)
	}
	r.perRound[round]++
	r.messages++
	if env.From >= 0 && env.From < len(r.sent) {
		r.sent[env.From]++
	}
}

// OnCrash implements sim.Observer.
func (r *recorder) OnCrash(round int, node sim.NodeID) {
	r.crashes = append(r.crashes, fmt.Sprintf("%d@r%d", node, round))
}

// OnHalt implements sim.Observer.
func (r *recorder) OnHalt(int, sim.NodeID) {}

// profile buckets the per-round counts of a run of the given number of
// rounds into spans that differ in length by at most one round.
func (r *recorder) profile(buckets, rounds int) []int64 {
	out := make([]int64, buckets)
	for i, c := range r.perRound {
		out[i*buckets/rounds] += c
	}
	return out
}

// busiest returns the index of the largest count, the first on a tie,
// and the count.
func busiest(counts []int64) (at int, most int64) {
	for i, c := range counts {
		if c > most {
			at, most = i, c
		}
	}
	return at, most
}

// printTrace renders the -trace diagnostics below the text report: the
// stage spans from the run tracer, then the transcript recorder's
// traffic analysis over the run's rounds.
func printTrace(rec *recorder, spans *obs.SpanTracer, r *scenario.Report) {
	tr := spans.Trace()
	fmt.Printf("\nstages (engine=%s outcome=%s, %d of %d rounds executed (%d quiet, %d repeated), %.3f ms total):\n",
		tr.Engine, tr.Outcome, tr.RoundsExecuted, tr.Rounds, tr.Rounds-tr.RoundsExecuted-tr.RoundsRepeated, tr.RoundsRepeated, tr.DurationMS)
	width := 0
	for _, s := range tr.Spans {
		width = max(width, len(s.Name))
	}
	for _, s := range tr.Spans {
		fmt.Printf("  %-*s %10.3f ms\n", width, s.Name, s.DurationMS)
	}
	rounds := r.Metrics.Rounds
	fmt.Printf("\nmessages: %d over %d rounds\n", rec.messages, rounds)
	br, bm := busiest(rec.perRound)
	fmt.Printf("busiest round: %d (%d msgs)\n", br, bm)
	bn, bc := busiest(rec.sent)
	fmt.Printf("busiest node:  %d (%d msgs)\n", bn, bc)
	fmt.Printf("crashes: %d", len(rec.crashes))
	if len(rec.crashes) > 0 {
		fmt.Printf(" (%s)", strings.Join(rec.crashes, ", "))
	}
	const buckets = 10
	fmt.Printf("\n\ntraffic profile (%d buckets over %d rounds):\n  ", buckets, rounds)
	for _, c := range rec.profile(buckets, rounds) {
		fmt.Printf("%6d", c)
	}
	fmt.Println()
	var quiet []int
	for i, c := range rec.sent {
		if c == 0 {
			quiet = append(quiet, i)
		}
	}
	if len(quiet) > 0 {
		fmt.Printf("\nquiet nodes (never sent): %v\n", quiet)
	}
}

// printJSONTrace emits the daemon's run envelope with the optional
// trace transcript under the "trace" key; a nil trace produces the
// exact daemon encoding.
func printJSONTrace(sp scenario.Spec, r *scenario.Report, tr *obs.Trace) error {
	body, err := serve.EncodeRunResponseTrace(sp.Key(), r, tr)
	if err != nil {
		return err
	}
	body = append(body, '\n')
	_, err = os.Stdout.Write(body)
	return err
}
