package scenario

import (
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

// TestExecuteIsTheEngineChokePoint pins what Execute adds to the
// engine: the result it returns is detached from the pooled run arena,
// so a caller may keep it while later runs reuse that arena.
func TestExecuteIsTheEngineChokePoint(t *testing.T) {
	d := MustLookup("consensus/few-crashes")
	sp := d.Spec(60, 10, 3)
	sp.Fault = FaultModel{Kind: RandomCrashes, Count: 10, Horizon: 30}
	_, res, err := runSpec(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	kept := res.Clone()
	for seed := uint64(4); seed < 8; seed++ {
		later := d.Spec(90, 15, seed)
		later.Fault = FaultModel{Kind: RandomCrashes, Count: 15, Horizon: 40}
		if _, err := Run(later); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(res, kept) {
		t.Fatalf("later runs rewrote a result Execute returned:\n%+v\nwas\n%+v", res, kept)
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
