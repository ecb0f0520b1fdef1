package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchJSONQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark emission skipped in -short mode")
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-quick", "-o", out}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rep.Schema != "lineartime/bench_sim/v6" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if len(rep.Benchmarks) != 8 {
		t.Fatalf("benchmarks = %d, want 8 (2 broadcaster + 2 multi-seed + 4 gossip)", len(rep.Benchmarks))
	}
	var sawSequential, sawReuse, sawScalarPerSeed, sawSliced bool
	var sawGossipScalar, sawGossipSliced, sawLinksScalar, sawLinksSliced bool
	for _, bp := range rep.Benchmarks {
		if bp.NsPerRound <= 0 || bp.MsgsPerRound <= 0 {
			t.Fatalf("degenerate point %+v", bp)
		}
		switch bp.Engine {
		case "sequential":
			sawSequential = true
		case "reuse":
			sawReuse = true
		case "scalar-per-seed":
			sawScalarPerSeed = true
			if bp.SeedsPerOp <= 0 || bp.SimsPerSec <= 0 {
				t.Fatalf("scalar-per-seed row missing seed accounting: %+v", bp)
			}
		case "sliced":
			sawSliced = true
			if bp.SeedsPerOp <= 0 || bp.SimsPerSec <= 0 {
				t.Fatalf("sliced row missing seed accounting: %+v", bp)
			}
			if bp.SpeedupVsScalarPerSeed <= 0 {
				t.Fatalf("sliced row missing speedup_vs_scalar_per_seed: %+v", bp)
			}
		case "scalar-per-seed-gossip":
			sawGossipScalar = true
			if bp.SeedsPerOp <= 0 || bp.SimsPerSec <= 0 {
				t.Fatalf("scalar-per-seed-gossip row missing seed accounting: %+v", bp)
			}
		case "sliced-gossip":
			sawGossipSliced = true
			if bp.SeedsPerOp <= 0 || bp.SimsPerSec <= 0 {
				t.Fatalf("sliced-gossip row missing seed accounting: %+v", bp)
			}
			if bp.SpeedupVsScalarPerSeed <= 0 {
				t.Fatalf("sliced-gossip row missing speedup_vs_scalar_per_seed: %+v", bp)
			}
		case "scalar-per-seed-gossip-links":
			sawLinksScalar = true
			if bp.SeedsPerOp <= 0 || bp.SimsPerSec <= 0 {
				t.Fatalf("scalar-per-seed-gossip-links row missing seed accounting: %+v", bp)
			}
		case "sliced-gossip-links":
			sawLinksSliced = true
			if bp.SeedsPerOp <= 0 || bp.SimsPerSec <= 0 {
				t.Fatalf("sliced-gossip-links row missing seed accounting: %+v", bp)
			}
			if bp.SpeedupVsScalarPerSeed <= 0 {
				t.Fatalf("sliced-gossip-links row missing speedup_vs_scalar_per_seed: %+v", bp)
			}
		}
	}
	if !sawSequential || !sawReuse {
		t.Fatalf("missing sequential or reuse rows: %+v", rep.Benchmarks)
	}
	if !sawScalarPerSeed || !sawSliced {
		t.Fatalf("missing multi-seed rows: %+v", rep.Benchmarks)
	}
	if !sawGossipScalar || !sawGossipSliced || !sawLinksScalar || !sawLinksSliced {
		t.Fatalf("missing gossip multi-seed rows: %+v", rep.Benchmarks)
	}
	if rep.GOMAXPROCS <= 0 || rep.NumCPU <= 0 {
		t.Fatalf("gomaxprocs=%d num_cpu=%d; want both positive", rep.GOMAXPROCS, rep.NumCPU)
	}
	if rep.MaxFeasible.N < 1024 {
		t.Fatalf("max feasible n = %d, want ≥ 1024", rep.MaxFeasible.N)
	}
	if rep.Baseline.AllocsPerOp == 0 {
		t.Fatal("baseline missing")
	}
}

func TestBenchJSONBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}, os.Stdout); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-only", "everything"}, os.Stdout); err == nil {
		t.Fatal("bad -only value accepted")
	}
	// A stray argument ends flag parsing: the -only after it would be
	// dropped unread.
	if err := run([]string{"-o", "-", "stray", "-only", "everything"}, os.Stdout); err == nil || !strings.Contains(err.Error(), `unexpected argument "stray"`) {
		t.Fatalf("stray argument: %v", err)
	}
}

// TestBenchJSONOnlySlicedFloor exercises the CI perf-floor smoke: only
// the multi-seed families are measured, and the -floor gate passes at a
// trivially low factor and fails at an impossible one.
func TestBenchJSONOnlySlicedFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark emission skipped in -short mode")
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-quick", "-only", "sliced", "-floor", "0.01", "-o", out}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(rep.Benchmarks) != 6 {
		t.Fatalf("benchmarks = %d, want 6 (2 multi-seed + 4 gossip)", len(rep.Benchmarks))
	}
	for _, bp := range rep.Benchmarks {
		switch bp.Engine {
		case "scalar-per-seed", "sliced", "scalar-per-seed-gossip", "sliced-gossip",
			"scalar-per-seed-gossip-links", "sliced-gossip-links":
		default:
			t.Fatalf("-only sliced measured engine %q", bp.Engine)
		}
	}
	if err := run([]string{"-quick", "-only", "sliced", "-floor", "1e9", "-o", out}, os.Stdout); err == nil {
		t.Fatal("impossible floor passed")
	}
}

func TestMeasureRejectsBrokenEngineConfig(t *testing.T) {
	if _, err := measure("sequential", 0, 1, 1); err == nil {
		t.Skip("testing.Benchmark swallows config errors via FailNow; nothing to assert")
	}
}
