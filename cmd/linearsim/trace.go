package main

import (
	"fmt"
	"os"

	"lineartime/internal/obs"
	"lineartime/internal/scenario"
	"lineartime/internal/serve"
	"lineartime/internal/trace"
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
	var rec *trace.Recorder
	var spans *obs.SpanTracer
	if out.trace {
		rec = trace.NewRecorder(sp.N)
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

// printTrace renders the -trace diagnostics below the text report: the
// stage spans from the run tracer, then the transcript recorder's
// traffic analysis.
func printTrace(rec *trace.Recorder, spans *obs.SpanTracer, r *scenario.Report) {
	tr := spans.Trace()
	fmt.Printf("\nstages (engine=%s outcome=%s, %d of %d rounds executed (%d quiet, %d repeated), %.3f ms total):\n",
		tr.Engine, tr.Outcome, tr.RoundsExecuted, tr.Rounds, tr.Rounds-tr.RoundsExecuted-tr.RoundsRepeated, tr.RoundsRepeated, tr.DurationMS)
	for _, s := range tr.Spans {
		fmt.Printf("  %-8s %10.3f ms\n", s.Name, s.DurationMS)
	}
	fmt.Println()
	fmt.Print(rec.Summary())
	fmt.Printf("\ntraffic profile (%d buckets over %d rounds):\n  ", 10, r.Metrics.Rounds)
	for _, c := range rec.TrafficProfile(10) {
		fmt.Printf("%6d", c)
	}
	fmt.Println()
	if quiet := rec.QuietNodes(); len(quiet) > 0 {
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
