package main

import (
	"errors"
	"fmt"
	"io"
	"strconv"
)

// The verdicts of -compare, per (end-to-end metric, workload).
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// errWorse makes -compare exit nonzero.
var errWorse = errors.New("at least one (metric, workload) pair is worse")

// benchmarkContract is the part of BENCHMARK.json -compare reads: the
// bound of each end-to-end metric.
type benchmarkContract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// verdict judges B against A for a metric whose bound is a share of
// A's value. spreadA and spreadB are the interquartile ranges of each
// side's repetitions: when either exceeds the bound (as a share of its
// own value) the runs cannot resolve a change of that size, and the
// pair is unresolved rather than same.
func verdict(better string, bound, a, b, spreadA, spreadB float64) string {
	if a <= 0 || b <= 0 {
		return verdictUnresolved
	}
	if spreadA/a > bound || spreadB/b > bound {
		return verdictUnresolved
	}
	change := (b - a) / a
	if better == "higher" {
		change = -change
	}
	switch {
	case change > bound:
		return verdictWorse
	case change < -bound:
		return verdictBetter
	default:
		return verdictSame
	}
}

// verdictErrorRate judges error_rate, whose bound is absolute.
func verdictErrorRate(a, b float64) string {
	switch {
	case b-a > errorRateBound:
		return verdictWorse
	case a-b > errorRateBound:
		return verdictBetter
	default:
		return verdictSame
	}
}

// compareFiles prints, for every (end-to-end metric, workload) pair of
// two result files, A, B, the ratio with its base and the verdict
// under the bounds of BENCHMARK.json, and fails if any pair is worse.
func compareFiles(pathA, pathB string, w io.Writer) error {
	var contract benchmarkContract
	if err := readJSON("BENCHMARK.json", &contract); err != nil {
		return fmt.Errorf("the bounds come from BENCHMARK.json at the repository root: %w", err)
	}
	var a, b resultFile
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	for _, f := range []struct {
		path string
		file *resultFile
	}{{pathA, &a}, {pathB, &b}} {
		if f.file.Schema != resultSchema {
			return fmt.Errorf("%s: schema %q, want %q", f.path, f.file.Schema, resultSchema)
		}
		if !f.file.Comparable {
			return fmt.Errorf("%s is a -quick smoke result and is not comparable", f.path)
		}
	}
	fmt.Fprintf(w, "A = %s (%s, %d CPU, commit %s, seed %d)\n", pathA, a.Machine.Go, a.Machine.NumCPU, a.Machine.GitCommit, a.Machine.Seed)
	fmt.Fprintf(w, "B = %s (%s, %d CPU, commit %s, seed %d)\n", pathB, b.Machine.Go, b.Machine.NumCPU, b.Machine.GitCommit, b.Machine.Seed)
	fmt.Fprintf(w, "%-12s %-18s %14s %14s  %-16s %6s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "verdict")

	byName := make(map[string]*workloadResult, len(b.Workloads))
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	worse := 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			return fmt.Errorf("%s has no workload %s", pathB, wa.Name)
		}
		for _, d := range contract.EndToEnd {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			v := verdict(d.Better, d.Bound, va.Value, vb.Value, va.IQR, vb.IQR)
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "%-12s %-18s %14.4f %14.4f  %-16s %5.0f%%  %s\n",
				wa.Name, d.Name, va.Value, vb.Value, formatRatio(va.Value, vb.Value), d.Bound*100, v)
		}
		v := verdictErrorRate(wa.ErrorRate, wb.ErrorRate)
		if v == verdictWorse {
			worse++
		}
		fmt.Fprintf(w, "%-12s %-18s %14.6f %14.6f  %-16s %6s  %s\n",
			wa.Name, metricErrorRate, wa.ErrorRate, wb.ErrorRate, formatRatio(wa.ErrorRate, wb.ErrorRate), "+0.001", v)
	}
	if worse > 0 {
		return fmt.Errorf("%d pairs: %w", worse, errWorse)
	}
	return nil
}

// formatRatio prints B/A with its base, as every ratio must be given.
func formatRatio(a, b float64) string {
	if a == 0 {
		return "n/a (base 0)"
	}
	return strconv.FormatFloat(b/a, 'f', 3, 64) + "x of A"
}
