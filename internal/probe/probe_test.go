package probe

import "testing"

func TestSurvivesWithEnoughMessages(t *testing.T) {
	p := New([]int{1, 2, 3, 4}, 3, 2)
	for k := 0; k < 3; k++ {
		if !p.Active() {
			t.Fatalf("round %d: inactive", k)
		}
		if got := len(p.SendTargets()); got != 4 {
			t.Fatalf("round %d: %d targets, want 4", k, got)
		}
		p.Observe(k, 2)
	}
	if !p.Done() || !p.Survived() {
		t.Fatalf("done=%v survived=%v, want true/true", p.Done(), p.Survived())
	}
}

func TestPausesPermanently(t *testing.T) {
	p := New([]int{1, 2}, 4, 2)
	p.Observe(0, 2)
	p.Observe(1, 1) // below δ → pause
	if p.Active() {
		t.Fatal("active after pausing")
	}
	if p.SendTargets() != nil {
		t.Fatal("paused node still has send targets")
	}
	p.Observe(2, 100) // recovery is not allowed
	p.Observe(3, 100)
	if !p.Done() {
		t.Fatal("not done after observing round γ−1")
	}
	if p.Survived() {
		t.Fatal("paused node reported survival")
	}
	if !p.Paused() {
		t.Fatal("Paused() false after pause")
	}
}

func TestSurvivedOnlyWhenDone(t *testing.T) {
	p := New([]int{1}, 2, 0)
	if p.Survived() {
		t.Fatal("survival reported before completion")
	}
	p.Observe(0, 0)
	if p.Survived() {
		t.Fatal("survival reported before the last round")
	}
	p.Observe(1, 0)
	if !p.Survived() {
		t.Fatal("δ=0 instance should always survive")
	}
}

func TestObserveAfterDoneIgnored(t *testing.T) {
	p := New([]int{1}, 1, 1)
	p.Observe(0, 5)
	p.Observe(0, 0) // ignored: the instance is over
	p.Observe(1, 0) // ignored: past γ
	if !p.Survived() {
		t.Fatal("post-completion observation changed the outcome")
	}
	q := New([]int{1}, 3, 1)
	q.Observe(-1, 0)
	q.Observe(3, 0)
	if q.Paused() || q.Done() {
		t.Fatal("an observation outside [0, γ) changed the automaton")
	}
}

// TestSkippedRoundsLeaveNothingToCatchUp: the automaton keeps no round
// counter, so observing only the rounds that change something — the
// first and the last — ends in the state observing every round does.
func TestSkippedRoundsLeaveNothingToCatchUp(t *testing.T) {
	for _, count := range []int{0, 2} {
		every, some := New([]int{1, 2}, 5, 2), New([]int{1, 2}, 5, 2)
		for k := 0; k < 5; k++ {
			every.Observe(k, count)
		}
		some.Observe(0, count)
		some.Observe(4, count)
		if every.paused != some.paused || every.done != some.done {
			t.Fatalf("count %d: every round %+v, first and last %+v", count, *every, *some)
		}
	}
}

func TestReset(t *testing.T) {
	p := New([]int{1, 2}, 2, 2)
	p.Observe(0, 0)
	p.Observe(1, 0)
	if p.Survived() {
		t.Fatal("should have paused")
	}
	p.Reset()
	if p.Done() || p.Paused() || !p.Active() {
		t.Fatal("reset did not rearm the automaton")
	}
	p.Observe(0, 2)
	p.Observe(1, 2)
	if !p.Survived() {
		t.Fatal("fresh instance after Reset did not survive")
	}
}

func TestDegenerateParams(t *testing.T) {
	p := New(nil, 0, -3) // clamped to γ=1, δ=0
	if p.gamma != 1 {
		t.Fatalf("gamma = %d, want clamped 1", p.gamma)
	}
	p.Observe(0, 0)
	if !p.Survived() {
		t.Fatal("δ clamped to 0 should survive")
	}
}
