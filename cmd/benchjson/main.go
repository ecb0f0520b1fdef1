// Command benchjson is the bit-sliced engine's perf floor. It times
// three batches two ways — each spec through the scalar scenario.Run,
// and all of them as one scenario.ExecuteBatch call — in alternating
// slices, prints one JSON line per pair (its median slice) to stdout,
// and exits non-zero when a pair's speedup is below its floor. It takes
// no flags and no arguments.
//
// Usage:
//
//	go run ./cmd/benchjson
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"lineartime/internal/scenario"
)

// floor is the speedup every pair must reach unless its point sets a
// lower cap.
const floor = 8

// armTime is how long each arm of a pair is timed, in timeSlices
// slices that alternate with the other arm's. The count is odd, so the
// median slice is one slice.
const (
	armTime    = time.Second
	timeSlices = 7
)

// point is one batch the gate times.
type point struct {
	name  string
	specs []scenario.Spec
	// cap re-bases the floor for one point: the pair is asked for
	// min(floor, cap); 0 leaves the floor.
	cap float64
}

// points are the three gated batches, 16 lanes each at n = 64, t = 8.
//
// The gossip caps are re-based, not 8: they divide by the scalar gossip
// stack, whose merges are word-parallel too, so lane-slicing buys less
// here than over the flooding comparator — and less again each time the
// scalar stack gets faster while the sliced batches stand still. Each
// cap is 0.8 × the lowest of at least three measurements. The
// link-fault cap was taken when the scalar stack stopped packing
// messages into wire words and cloning snapshot rumors: the scalar
// link-fault arm went from 39.3–42.6 ms to 30.4–36.1 ms and its pair
// read 3.71–5.27× (4.69–4.90× before). The crash-lane cap was re-based
// when the scalar engine began repeating steady probing rounds instead
// of executing them, which link-fault runs never do: over four
// alternating runs the scalar crash-lane arm went from 20.0–31.5 ms to
// 8.5–13.2 ms and its pair read 2.19–2.74× (5.98–7.61× before). The
// sliced arms themselves did not move (crash lanes 3.2–4.4 ms before,
// 3.9–4.8 ms after). It was re-based again, 1.75 → 1.48, when the
// scalar engine began carrying steady spans across the quiet rounds
// between probing instances and through each instance's last round:
// over four alternating runs the scalar crash-lane arm went from
// 10.0–13.0 ms to 7.5–8.3 ms and its pair read 1.85–1.95× (2.72–2.98×
// before), while the sliced arm stood at 3.5–4.5 ms before and 3.9–4.3
// ms after.
func points() []point {
	return []point{
		{"engine/sliced/n=64/seeds=16", floodingSpecs(64, 8, 16), 0},
		{"engine/sliced-gossip/n=64/seeds=16", gossipSpecs(64, 8, 16, false), 1.48},
		{"engine/sliced-gossip-links/n=64/seeds=16", gossipSpecs(64, 8, 16, true), 3.0},
	}
}

// floodingSpecs is the flooding comparator under per-seed random
// crashes, one spec per seed 1..seeds, so the lanes genuinely diverge
// (different crash sets, rounds and message counts) instead of
// measuring a degenerate all-lanes-identical batch.
func floodingSpecs(n, t, seeds int) []scenario.Spec {
	sp := scenario.MustLookup("consensus/flooding").Spec(n, t, 1)
	sp.Fault = scenario.FaultModel{Kind: scenario.RandomCrashes, Count: t, Horizon: t + 2}
	sps := make([]scenario.Spec, seeds)
	for i := range sps {
		sps[i] = sp
		sps[i].Seed = uint64(i + 1)
	}
	return sps
}

// gossipSpecs is one gossip/expander shape shared by every lane — same
// topology seed, so the whole batch forms one sliced group — with
// per-lane random-crash adversaries, so the lanes diverge in crash
// sets, rounds and traffic. With links set the lanes cycle the three
// link-fault families instead — omission at 1–5 %, delay up to 1 or 2
// rounds, a partition window — the faulted sliced path: lane kernels,
// the delay ring and its sender-ordered arrivals, merges of re-sent
// snapshots.
func gossipSpecs(n, t, seeds int, links bool) []scenario.Spec {
	base := scenario.MustLookup("gossip/expander").Spec(n, t, 1)
	sps := make([]scenario.Spec, seeds)
	for i := range sps {
		sps[i] = base
		f := scenario.FaultModel{Kind: scenario.RandomCrashes, Count: t, Horizon: t + 2}
		if links {
			switch i % 3 {
			case 0:
				f = scenario.FaultModel{Kind: scenario.OmissionFaults, Rate: 0.01 * float64(1+i%5)}
			case 1:
				f = scenario.FaultModel{Kind: scenario.DelayedLinks, Delay: 1 + i/3%2}
			default:
				f = scenario.FaultModel{Kind: scenario.PartitionWindow, WindowStart: 1 + i%4, WindowEnd: 2 + i%4 + i/3%4}
			}
		}
		f.Seed = uint64(1001 + i)
		sps[i].Fault = f
	}
	return sps
}

// pair is one slice of a point: its two arms' mean times per call.
// measure returns the median slice, printed as one JSON line.
type pair struct {
	Name     string  `json:"name"`
	Lanes    int     `json:"lanes"`
	ScalarMs float64 `json:"scalar_ms"`
	SlicedMs float64 `json:"sliced_ms"`
	Speedup  float64 `json:"speedup"`
	Cap      float64 `json:"cap,omitempty"`
}

// measure times pt's scalar arm (one scenario.Run per spec) against its
// sliced arm (one scenario.ExecuteBatch call over all of them) in
// alternating slices of at least d/timeSlices each, after one slice that
// warms both up (the first call builds the overlays), and returns the
// slice of median speedup: adjacent timings, so drift between the arms
// stays small, and a median, so no one disturbed slice decides.
func measure(pt point, d time.Duration) (pair, error) {
	sps := pt.specs
	scalar := func() error {
		for _, sp := range sps {
			if _, err := scenario.Run(sp); err != nil {
				return err
			}
		}
		return nil
	}
	sliced := func() error {
		_, errs := scenario.ExecuteBatch(sps)
		return errors.Join(errs...)
	}
	var ps [1 + timeSlices]pair
	for i := range ps {
		p := &ps[i]
		for _, arm := range []struct {
			op func() error
			ms *float64
		}{{scalar, &p.ScalarMs}, {sliced, &p.SlicedMs}} {
			runtime.GC()
			ops, start := 0, time.Now()
			for ops == 0 || time.Since(start) < d/timeSlices {
				if err := arm.op(); err != nil {
					return pair{}, fmt.Errorf("%s: %w", pt.name, err)
				}
				ops++
			}
			*arm.ms = float64(time.Since(start)) / 1e6 / float64(ops)
		}
		p.Speedup = p.ScalarMs / p.SlicedMs
	}
	timed := ps[1:]
	slices.SortFunc(timed, func(a, b pair) int { return cmp.Compare(a.Speedup, b.Speedup) })
	p := timed[timeSlices/2]
	p.Name, p.Lanes, p.Cap = pt.name, len(sps), pt.cap
	return p, nil
}

// judge fails unless every pair's speedup reaches min(base, its cap).
func judge(pairs []pair, base float64) error {
	if len(pairs) == 0 {
		return errors.New("no pairs to judge")
	}
	for _, p := range pairs {
		want := base
		if p.Cap > 0 && p.Cap < want {
			want = p.Cap
		}
		if p.Speedup < want {
			return fmt.Errorf("%s: speedup %.2f below floor %.2f", p.Name, p.Speedup, want)
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected argument %q; benchjson takes no arguments", args[0])
	}
	var pairs []pair
	enc := json.NewEncoder(stdout)
	for _, pt := range points() {
		p, err := measure(pt, armTime)
		if err != nil {
			return err
		}
		if err := enc.Encode(p); err != nil {
			return err
		}
		pairs = append(pairs, p)
	}
	return judge(pairs, floor)
}
