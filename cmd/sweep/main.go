// Command sweep regenerates the experiment series of EXPERIMENTS.md:
// one markdown table per experiment id (E2–E13, and T1 for the paper's
// Table 1), covering every performance theorem of the paper. The
// experiments themselves are declared over the scenario registry in
// internal/scenario/experiments; this command is the enumeration loop.
//
// Sweep points within an experiment are independent runs, so they are
// fanned across a worker pool (-parallel, default GOMAXPROCS) and the
// rows printed in order once all have completed. Each worker's runs
// dispatch through scenario.Execute, whose arena pool (sim.Runtime)
// hands every consecutive point a warm engine — steady-state sweep
// points pay no per-run state rebuild.
//
// Usage:
//
//	sweep             # run everything
//	sweep -exp E4     # one experiment (-exp T1: Table 1)
//	sweep -quick      # smaller sizes (CI-friendly)
//	sweep -parallel 4 # cap the sweep-point workers
//	sweep -seeds 64   # aggregate multi-seed points over 64 seeds
//	                  # (batched through the bit-sliced engine)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"

	"lineartime/internal/scenario/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// parallelism is the sweep-point worker count, set by -parallel.
var parallelism = runtime.GOMAXPROCS(0)

// seeds is the per-point seed count, set by -seeds. At 1 every point
// runs its committed single-seed path, so the golden output is
// byte-identical to a run without the flag; above 1, points with a
// multi-seed path (Point.RunN) aggregate over seeds 1..N, batched
// through the bit-sliced engine where the scenario allows.
var seeds = 1

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	exp := fs.String("exp", "", "experiment id (E2..E13, T1); empty = all")
	quick := fs.Bool("quick", false, "smaller sizes")
	par := fs.Int("parallel", runtime.GOMAXPROCS(0), "sweep-point workers")
	sd := fs.Int("seeds", 1, "seeds per point (points without a multi-seed path keep their committed seed)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q; %s takes flags only", fs.Arg(0), fs.Name())
	}
	if *par > 0 {
		parallelism = *par
	}
	if *sd < 1 {
		return fmt.Errorf("-seeds %d must be at least 1", *sd)
	}
	seeds = *sd
	for _, e := range experiments.All() {
		if *exp != "" && e.ID != *exp {
			continue
		}
		fmt.Fprintf(w, "## %s: %s\n\n", e.ID, e.Title)
		if err := renderExperiment(w, e, *quick); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// renderExperiment prints the experiment's sections, fanning each
// section's points across the worker pool.
func renderExperiment(w io.Writer, e experiments.Experiment, quick bool) error {
	for i, sec := range e.Sections(quick) {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if sec.Preamble != "" {
			fmt.Fprintln(w, sec.Preamble)
			fmt.Fprintln(w)
		}
		rows, err := tableRows(sec.Points)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, sec.Header)
		fmt.Fprintln(w, sec.Sep)
		for _, row := range rows {
			fmt.Fprintln(w, row)
		}
		if sec.Footer != "" {
			fmt.Fprintln(w, "\n"+sec.Footer)
		}
	}
	return nil
}

// tableRows fans the independent sweep points across the worker pool
// and returns their formatted rows in point order. The first error (by
// point index, for determinism) wins.
func tableRows(points []experiments.Point) ([]string, error) {
	count := len(points)
	rows := make([]string, count)
	errs := make([]error, count)
	workers := parallelism
	if workers > count {
		workers = count
	}
	if workers < 1 {
		workers = 1
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				if seeds > 1 && points[i].RunN != nil {
					rows[i], errs[i] = points[i].RunN(seeds)
				} else {
					rows[i], errs[i] = points[i].Run()
				}
			}
		}()
	}
	for i := 0; i < count; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}
