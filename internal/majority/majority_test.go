package majority

import (
	"testing"

	"lineartime/internal/consensus"
	"lineartime/internal/crash"
	"lineartime/internal/sim"
)

func runVote(t *testing.T, n, tt, yesCount int, adv sim.LinkFault) ([]*Vote, *sim.Result) {
	t.Helper()
	top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*Vote, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ms[i] = New(i, top, i < yesCount)
		ps[i] = ms[i]
	}
	res, err := sim.Run(sim.Config{Protocols: ps, Fault: adv, MaxRounds: top.Schedule.Checkpoint + 8})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return ms, res
}

func TestMajorityYes(t *testing.T) {
	n, tt := 60, 12
	ms, res := runVote(t, n, tt, 40, nil)
	for i, m := range ms {
		if res.Crashed.Contains(i) {
			continue
		}
		verdict, yes, ballots, ok := m.Verdict()
		if !ok {
			t.Fatalf("node %d has no verdict", i)
		}
		if verdict != Yes {
			t.Fatalf("node %d verdict %v, want yes (40/60)", i, verdict)
		}
		if yes != 40 || ballots != 60 {
			t.Fatalf("node %d tallied %d/%d, want 40/60", i, yes, ballots)
		}
	}
}

func TestMajorityNo(t *testing.T) {
	n, tt := 60, 12
	ms, res := runVote(t, n, tt, 20, nil)
	for i, m := range ms {
		if res.Crashed.Contains(i) {
			continue
		}
		if verdict, _, _, ok := m.Verdict(); !ok || verdict != No {
			t.Fatalf("node %d verdict %v/%v, want no", i, verdict, ok)
		}
	}
}

func TestMajorityTieIsNo(t *testing.T) {
	n, tt := 60, 12
	ms, res := runVote(t, n, tt, 30, nil)
	for i, m := range ms {
		if res.Crashed.Contains(i) {
			continue
		}
		if verdict, yes, ballots, _ := m.Verdict(); verdict != No || 2*yes > ballots {
			t.Fatalf("node %d: tie must be no, got %v (%d/%d)", i, verdict, yes, ballots)
		}
	}
}

func TestMajorityAgreementUnderCrashes(t *testing.T) {
	n, tt := 60, 12
	for seed := uint64(0); seed < 4; seed++ {
		adv := crash.NewRandom(n, tt, 50, seed)
		ms, res := runVote(t, n, tt, 31, adv)
		var firstYes, firstBallots = -1, -1
		var firstVerdict Verdict
		for i, m := range ms {
			if res.Crashed.Contains(i) {
				continue
			}
			verdict, yes, ballots, ok := m.Verdict()
			if !ok {
				t.Fatalf("seed %d: node %d has no verdict", seed, i)
			}
			if firstBallots < 0 {
				firstVerdict, firstYes, firstBallots = verdict, yes, ballots
				continue
			}
			if verdict != firstVerdict || yes != firstYes || ballots != firstBallots {
				t.Fatalf("seed %d: tallies diverge: (%v %d/%d) vs (%v %d/%d)",
					seed, verdict, yes, ballots, firstVerdict, firstYes, firstBallots)
			}
		}
		// The agreed ballot set contains every survivor, so the tally
		// reflects at least the surviving electorate.
		if firstBallots < n-res.Crashed.Count() {
			t.Fatalf("seed %d: only %d ballots counted for %d survivors",
				seed, firstBallots, n-res.Crashed.Count())
		}
	}
}

// String implements fmt.Stringer for the failure messages above.
func (v Verdict) String() string {
	if v == Yes {
		return "yes"
	}
	return "no"
}

func TestVerdictString(t *testing.T) {
	if Yes.String() != "yes" || No.String() != "no" {
		t.Fatal("verdict strings wrong")
	}
}
