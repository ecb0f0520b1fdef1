package main

import (
	"encoding/json"
	"os"
	"path/filepath"
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
	if rep.Schema != "lineartime/bench_sim/v5" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if len(rep.Benchmarks) != 12 {
		t.Fatalf("benchmarks = %d, want 12 (3 broadcaster + 2 multi-seed + 4 gossip + 3 implicit)", len(rep.Benchmarks))
	}
	var sawParallel, sawReuse, sawScalarPerSeed, sawSliced bool
	var sawGossipScalar, sawGossipSliced, sawLinksScalar, sawLinksSliced bool
	var sawImplicitSeq, sawImplicitPar, sawImplicitSliced bool
	for _, bp := range rep.Benchmarks {
		if bp.NsPerRound <= 0 || bp.MsgsPerRound <= 0 {
			t.Fatalf("degenerate point %+v", bp)
		}
		switch bp.Engine {
		case "parallel":
			sawParallel = true
			if bp.SpeedupVsSequential <= 0 {
				t.Fatalf("parallel row missing speedup_vs_sequential: %+v", bp)
			}
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
		case "implicit-sequential":
			sawImplicitSeq = true
			if bp.HeapResidentBytes <= 0 || bp.BytesPerNode <= 0 {
				t.Fatalf("implicit row missing residency: %+v", bp)
			}
		case "implicit-parallel":
			sawImplicitPar = true
			if bp.SpeedupVsSequential <= 0 {
				t.Fatalf("implicit-parallel row missing speedup_vs_sequential: %+v", bp)
			}
		case "implicit-sliced":
			sawImplicitSliced = true
			if bp.SeedsPerOp <= 0 || bp.SimsPerSec <= 0 {
				t.Fatalf("implicit-sliced row missing seed accounting: %+v", bp)
			}
		}
	}
	if !sawParallel || !sawReuse {
		t.Fatalf("missing parallel or reuse rows: %+v", rep.Benchmarks)
	}
	if !sawScalarPerSeed || !sawSliced {
		t.Fatalf("missing multi-seed rows: %+v", rep.Benchmarks)
	}
	if !sawGossipScalar || !sawGossipSliced || !sawLinksScalar || !sawLinksSliced {
		t.Fatalf("missing gossip multi-seed rows: %+v", rep.Benchmarks)
	}
	if !sawImplicitSeq || !sawImplicitPar || !sawImplicitSliced {
		t.Fatalf("missing implicit rows: %+v", rep.Benchmarks)
	}
	if rep.GOMAXPROCS <= 0 || rep.NumCPU <= 0 {
		t.Fatalf("gomaxprocs=%d num_cpu=%d; want both positive", rep.GOMAXPROCS, rep.NumCPU)
	}
	if rep.MaxFeasible.N < 1024 {
		t.Fatalf("max feasible n = %d, want ≥ 1024", rep.MaxFeasible.N)
	}
	if rep.MaxFeasibleImplicit.N < 1024 {
		t.Fatalf("max feasible implicit n = %d, want ≥ 1024", rep.MaxFeasibleImplicit.N)
	}
	if len(rep.MemoryModel) != 2 {
		t.Fatalf("memory_model entries = %d, want 2 (implicit + materialized-csr)", len(rep.MemoryModel))
	}
	var implicitRes, csrRes int64
	for _, mp := range rep.MemoryModel {
		if mp.HeapResidentBytes <= 0 {
			t.Fatalf("memory_model point missing residency: %+v", mp)
		}
		switch mp.Mode {
		case "implicit":
			implicitRes = mp.HeapResidentBytes
		case "materialized-csr":
			csrRes = mp.HeapResidentBytes
		}
	}
	if implicitRes <= 0 || csrRes <= implicitRes {
		t.Fatalf("memory model should show materialized ≫ implicit, got csr=%d implicit=%d", csrRes, implicitRes)
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
	if _, err := measure("parallel", 0, 1, 1, 0); err == nil {
		t.Skip("testing.Benchmark swallows config errors via FailNow; nothing to assert")
	}
}
