package scenario

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestRunnerCoversEveryRegisteredScenario materializes and executes
// every registry definition at a small size, asserting the unified
// report carries the matching problem-specific outcome. This is the
// wiring test behind "adding a scenario is one registry entry".
func TestRunnerCoversEveryRegisteredScenario(t *testing.T) {
	for _, d := range All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			n, tt := 50, 8
			if d.Problem == ByzantineConsensus {
				tt = 4
			}
			rep, err := Run(d.Spec(n, tt, 1))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Scenario != d.Name || rep.Problem != d.Problem || rep.Algorithm != d.Algorithm {
				t.Fatalf("report header %q/%v/%v does not match definition %q/%v/%v",
					rep.Scenario, rep.Problem, rep.Algorithm, d.Name, d.Problem, d.Algorithm)
			}
			if rep.Metrics.Rounds <= 0 {
				t.Fatalf("no rounds executed")
			}
			// Fault-bound rows (the E12 link-fault matrix) may
			// legitimately degrade — e.g. gossip under 2-round delays
			// loses completeness — so correctness is asserted only for
			// the fault-free protocol stacks; every row must still
			// terminate and report its problem outcome.
			faultFree := d.Fault.Kind == NoFailures
			var outcome interface{}
			switch d.Problem {
			case Consensus:
				outcome = rep.Consensus
				if faultFree && (rep.Consensus == nil || !rep.Consensus.Agreement || !rep.Consensus.Validity) {
					t.Fatalf("fault-free consensus violated correctness: %+v", rep.Consensus)
				}
			case Gossip:
				outcome = rep.Gossip
				if faultFree && (rep.Gossip == nil || !rep.Gossip.Complete) {
					t.Fatalf("fault-free gossip incomplete")
				}
			case Checkpointing:
				outcome = rep.Checkpoint
				if faultFree && (rep.Checkpoint == nil || !rep.Checkpoint.Agreement) {
					t.Fatalf("fault-free checkpointing disagreement")
				}
			case ByzantineConsensus:
				outcome = rep.Byzantine
				if faultFree && (rep.Byzantine == nil || !rep.Byzantine.Agreement) {
					t.Fatalf("fault-free byzantine disagreement")
				}
			case AlmostEverywhere, SpreadCommonValue:
				outcome = rep.Subroutine
				if faultFree && (rep.Subroutine == nil || rep.Subroutine.Deciders == 0) {
					t.Fatalf("no deciders: %+v", rep.Subroutine)
				}
			case MajorityVote:
				outcome = rep.Majority
				if faultFree && (rep.Majority == nil || !rep.Majority.Agreement) {
					t.Fatalf("fault-free majority disagreement")
				}
			}
			if outcome == nil || reflect.ValueOf(outcome).IsNil() {
				t.Fatalf("problem outcome missing for %v", d.Problem)
			}
		})
	}
}

// TestExecuteIsTheEngineChokePoint covers the dispatch rules: serial
// vs pooled engines produce identical results, and single-port configs
// reject the pool.
func TestExecuteIsTheEngineChokePoint(t *testing.T) {
	d := MustLookup("consensus/few-crashes")
	mk := func() Spec {
		sp := d.Spec(60, 10, 3)
		sp.Fault = FaultModel{Kind: RandomCrashes, Count: 10, Horizon: 30}
		return sp
	}
	serialSpec := mk()
	serial, err := Run(serialSpec)
	if err != nil {
		t.Fatal(err)
	}
	parallelSpec := mk()
	parallelSpec.Exec = Parallel(3)
	parallel, err := Run(parallelSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel report diverged from serial:\n%+v\nvs\n%+v", parallel, serial)
	}

	sp := MustLookup("consensus/single-port").Spec(40, 6, 1)
	sp.Exec = Parallel(2)
	if _, err := Run(sp); !errors.Is(err, ErrSinglePortParallel) {
		t.Fatalf("single-port parallel run: err = %v, want ErrSinglePortParallel", err)
	}
}

// TestLinkFaultParallelismMatchesSerial pins sequential/parallel
// equivalence for every fault-bound registry row — the omission,
// partition and delay scenarios must produce identical reports on the
// sequential engine and the sharded pool at several worker counts,
// like the crash scenarios always have.
func TestLinkFaultParallelismMatchesSerial(t *testing.T) {
	for _, d := range All() {
		if d.Fault.Kind == NoFailures {
			continue
		}
		d := d
		t.Run(d.Name, func(t *testing.T) {
			serial, err := Run(d.Spec(72, 12, 5))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3, 0} {
				sp := d.Spec(72, 12, 5)
				sp.Exec = Parallel(workers)
				parallel, err := Run(sp)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(serial, parallel) {
					t.Fatalf("workers=%d: parallel report diverged from serial:\n%+v\nvs\n%+v",
						workers, parallel, serial)
				}
			}
		})
	}
}

// TestByzantineParallelismMatchesSerial is the regression test for the
// pre-refactor gap where RunByzantineConsensus ignored WithParallelism
// (api.go called sim.Run directly): Byzantine scenarios must dispatch
// through the same choke point and produce identical reports on both
// engines.
func TestByzantineParallelismMatchesSerial(t *testing.T) {
	mk := func() Spec {
		sp := MustLookup("byzantine/ab-consensus").Spec(60, 3, 1)
		sp.Fault = FaultModel{Kind: ByzantineFaults, Strategy: Equivocate, Corrupted: []int{0, 1, 2}}
		return sp
	}
	serial, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if serial.Metrics.ByzMessages == 0 {
		t.Fatal("equivocators sent nothing; test is vacuous")
	}
	for _, workers := range []int{1, 3, 0} {
		sp := mk()
		sp.Exec = Parallel(workers)
		parallel, err := Run(sp)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("workers=%d: parallel byzantine report diverged from serial:\n%+v\nvs\n%+v",
				workers, parallel, serial)
		}
	}
}

func TestRunnerValidation(t *testing.T) {
	if _, err := Run(Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	sp := MustLookup("consensus/few-crashes").Spec(40, 6, 1)
	sp.BoolInputs = sp.BoolInputs[:10]
	if _, err := Run(sp); err == nil {
		t.Fatal("short inputs accepted")
	}
	sp = MustLookup("consensus/few-crashes").Spec(40, 6, 1)
	sp.Algorithm = "nonsense"
	if _, err := Run(sp); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := Run(Spec{Problem: Problem(99), N: 10}); err == nil {
		t.Fatal("unknown problem accepted")
	}
}

// TestRoundSlackFeedsMaxRounds pins how RoundSlack is resolved: a
// negative slack falls back to the default and the run succeeds, and a
// slack above maxRoundSlack is rejected before anything is built — the
// engine would size its per-round series by it.
func TestRoundSlackFeedsMaxRounds(t *testing.T) {
	sp := MustLookup("consensus/few-crashes").Spec(40, 6, 1)
	sp.RoundSlack = -1000
	if _, err := Run(sp); err != nil {
		t.Fatalf("negative slack must fall back to the default slack: %v", err)
	}
	sp.RoundSlack = 1 << 40
	if _, err := Run(sp); err == nil || !strings.Contains(err.Error(), "round slack") {
		t.Fatalf("slack 2^40: err = %v, want the round-slack bound", err)
	}
}

// TestPartLabelerFlowsIntoReport asserts the per-part breakdown
// survives the scenario layer for protocols that expose schedules.
func TestPartLabelerFlowsIntoReport(t *testing.T) {
	rep, err := Run(MustLookup("consensus/few-crashes").Spec(60, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Metrics.PerPart) == 0 {
		t.Fatal("few-crashes run lost its per-part breakdown")
	}
}
