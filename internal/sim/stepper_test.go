package sim

import (
	"errors"
	"testing"
)

func TestStepperMatchesRun(t *testing.T) {
	ps1, gs1 := newGatherers(10)
	ps2, gs2 := newGatherers(10)

	res1, err := Run(Config{Protocols: ps1, MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}

	st, err := NewStepper(Config{Protocols: ps2, MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		done, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		steps++
	}
	res2 := st.st.result()
	if res1.Metrics.Rounds != res2.Metrics.Rounds {
		t.Fatalf("rounds differ: %d vs %d", res1.Metrics.Rounds, res2.Metrics.Rounds)
	}
	if res1.Metrics.Messages != res2.Metrics.Messages {
		t.Fatalf("messages differ: %d vs %d", res1.Metrics.Messages, res2.Metrics.Messages)
	}
	if steps != res1.Metrics.Rounds {
		t.Fatalf("stepper executed %d rounds, Run reported %d", steps, res1.Metrics.Rounds)
	}
	if gs1[0].ones != gs2[0].ones {
		t.Fatal("protocol end states differ between Run and Stepper")
	}
}

func TestStepperExposesIntermediateState(t *testing.T) {
	ps, gs := newGatherers(6)
	st, err := NewStepper(Config{Protocols: ps, MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if gs[0].ones != 0 {
		t.Fatal("state mutated before stepping")
	}
	if _, err := st.Step(); err != nil {
		t.Fatal(err)
	}
	// After round 0 the gatherer has received all bits.
	if gs[0].ones != 3 {
		t.Fatalf("after one step node 0 counted %d ones, want 3", gs[0].ones)
	}
	if st.round != 1 {
		t.Fatalf("round = %d, want 1", st.round)
	}
}

func TestStepperDoneIsSticky(t *testing.T) {
	ps, _ := newGatherers(4)
	st, err := NewStepper(Config{Protocols: ps, MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		done, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			// Subsequent calls stay done without error.
			again, err := st.Step()
			if err != nil || !again {
				t.Fatalf("done not sticky: done=%v err=%v", again, err)
			}
			return
		}
	}
	t.Fatal("stepper never completed")
}

func TestStepperMaxRounds(t *testing.T) {
	st, err := NewStepper(Config{Protocols: []Protocol{&neverHalt{}}, MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	var last error
	for i := 0; i < 5; i++ {
		if _, err := st.Step(); err != nil {
			last = err
			break
		}
	}
	if !errors.Is(last, ErrNoTermination) {
		t.Fatalf("err = %v, want ErrNoTermination", last)
	}
}

func TestStepperConfigValidation(t *testing.T) {
	if _, err := NewStepper(Config{MaxRounds: 1}); err == nil {
		t.Fatal("empty protocols accepted")
	}
}
