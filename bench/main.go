// Command bench is the repository benchmark: four workloads against
// the real linearsimd binary (or the scenario library), every output
// checked, seven end-to-end metrics per workload, and a per-layer
// table from a separate traced pass. README.md in this directory is
// the glossary; BENCHMARK.json at the repository root is the contract
// (command, workloads, metric names, bounds, run length).
//
// Run it from the repository root:
//
//	go run ./bench [-seed S] [-o out.json]         all four workloads
//	go run ./bench -workload serve-cold -trace 0   one workload, end-to-end only
//	go run ./bench -compare A.json B.json          verdict per (metric, workload)
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const (
	// repetitions is the fixed number of timed windows per workload;
	// when time is short the windows shrink, never their count.
	repetitions = 5
	// defaultSeconds is the committed timed length per workload, equal
	// to BENCHMARK.json's run_seconds: 5 repetitions of 4 s.
	defaultSeconds = 20
	// setUps is how many fresh set-ups setup_s is the median of.
	setUps = 3

	resultSchema = "lineartime/bench/v1"
)

// machine records the box a result came from, so a number is never
// separated from it.
type machine struct {
	Go         string `json:"go"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	GitCommit  string `json:"git_commit"`
	// Seed is the workload seed; RepSeconds × Repetitions the timed
	// length of each workload.
	Seed        uint64  `json:"seed"`
	Repetitions int     `json:"repetitions"`
	RepSeconds  float64 `json:"rep_seconds"`
	SetUps      int     `json:"set_ups"`
}

// resultFile is what -o writes and -compare reads.
type resultFile struct {
	Schema string `json:"schema"`
	// Comparable is false for -quick runs: a smoke result must never be
	// compared against, or committed next to, a full one.
	Comparable bool              `json:"comparable"`
	Machine    machine           `json:"machine"`
	EndToEnd   []metricDef       `json:"end_to_end_metrics"`
	PerLayer   []metricDef       `json:"per_layer_metrics"`
	Workloads  []*workloadResult `json:"workloads"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name       = fs.String("workload", "", "run one workload (serve-hot, serve-cold, serve-heavy, batch-lanes); empty = all four")
		seed       = fs.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds    = fs.Int("seconds", defaultSeconds, "timed seconds per workload, split into 5 repetitions")
		trace      = fs.Int("trace", 1, "1 = also run the traced pass and report per-layer metrics, 0 = end-to-end only")
		traceOut   = fs.String("trace-out", "", "write the traced pass's spans to this file (one workload only)")
		out        = fs.String("o", "", "write the result file here")
		quick      = fs.Bool("quick", false, "smoke run: 1 repetition × 2 s, 1 set-up; NOT comparable with full runs")
		compare    = fs.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
		setupChild = fs.Bool("setup-only", false, "internal: set up the workload once, print the seconds it took, exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	// The benchmark builds the daemon from source, so it must run from
	// the root of a checkout that has the source.
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}

	cfg := runConfig{
		seed:     *seed,
		reps:     repetitions,
		repLen:   time.Duration(*seconds) * time.Second / repetitions,
		setups:   setUps,
		trace:    *trace == 1,
		traceOut: *traceOut,
	}
	if *quick {
		cfg.reps, cfg.repLen, cfg.setups = 1, 2*time.Second, 1
	}
	file := &resultFile{
		Schema:     resultSchema,
		Comparable: !*quick,
		Machine:    describeMachine(cfg),
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}

	if *name == "" {
		if *traceOut != "" {
			return fmt.Errorf("-trace-out needs -workload")
		}
		if err := runAll(file, *seed, *seconds, *trace, *quick, stdout); err != nil {
			return err
		}
		return writeResult(file, *out)
	}

	w, ok := lookupWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *setupChild {
		secs, err := setupOnly(w, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, secs)
		return nil
	}
	res, err := runWorkload(w, cfg)
	if err != nil {
		return err
	}
	file.Workloads = []*workloadResult{res}
	if err := writeResult(file, *out); err != nil {
		return err
	}
	if *quick {
		fmt.Fprintln(stdout, "QUICK RUN: 1 repetition × 2 s — a smoke test, not comparable with any committed number")
	}
	printWorkload(stdout, res)
	return printDriverLine(stdout, res, cfg.trace)
}

// runAll runs every workload in a fresh process each (so no workload
// inherits another's heap, caches or peak RSS), relaying their tables
// and collecting their result files.
func runAll(file *resultFile, seed uint64, seconds, trace int, quick bool, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	for _, w := range workloads {
		part := filepath.Join(buildDir, "result-"+w.name+".json")
		cmd := exec.Command(self, "-workload", w.name, "-o", part,
			"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds),
			"-trace", strconv.Itoa(trace), "-quick="+strconv.FormatBool(quick))
		cmd.Stdout, cmd.Stderr = stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		var one resultFile
		if err := readJSON(part, &one); err != nil {
			return err
		}
		file.Workloads = append(file.Workloads, one.Workloads...)
	}
	return nil
}

func describeMachine(cfg runConfig) machine {
	m := machine{
		Go:          runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Kernel:      "unknown",
		GitCommit:   "unknown",
		Seed:        cfg.seed,
		Repetitions: cfg.reps,
		RepSeconds:  cfg.repLen.Seconds(),
		SetUps:      cfg.setups,
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(data))
	}
	// A checkout exported without its history has no commit to name.
	if data, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.GitCommit = strings.TrimSpace(string(data))
	}
	return m
}

func writeResult(file *resultFile, path string) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// printWorkload prints every metric of one workload by name, with its
// unit; end-to-end metrics carry the interquartile range of their
// repetitions beside them.
func printWorkload(w io.Writer, res *workloadResult) {
	fmt.Fprintf(w, "== %s  (%d clients, lat_tail_ms = p%g over %d samples, build %.2f s)\n",
		res.Name, res.Clients, res.TailPct, res.LatencySamples, res.BuildSeconds)
	for _, d := range endToEnd {
		v := res.EndToEnd[d.Name]
		fmt.Fprintf(w, "  %-34s %14.4f %-6s  (IQR %.4f over %d)\n", d.Name, v.Value, v.Unit, v.IQR, len(v.Samples))
	}
	fmt.Fprintf(w, "  %-34s %14.6f %-6s  (%d failed of %d attempted)\n", metricErrorRate, res.ErrorRate, "ratio", res.Failed, res.Attempted)
	for _, d := range perLayer {
		if v, ok := res.PerLayer[d.Name]; ok && d.Name != metricErrorRate {
			fmt.Fprintf(w, "  %-34s %14.4f %-6s\n", d.Name, v.Value, v.Unit)
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", n)
	}
}

// driverLine is the one-object summary the benchmark contract asks for
// as the last line of standard output.
type driverLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]layerValue `json:"metrics"`
}

func printDriverLine(w io.Writer, res *workloadResult, traced bool) error {
	line := driverLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed}
	if traced {
		line.Metrics = res.PerLayer
	} else {
		line.Metrics = make(map[string]layerValue, len(res.EndToEnd))
		for name, v := range res.EndToEnd {
			line.Metrics[name] = layerValue{Value: v.Value, Unit: v.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}
