package sim

import "testing"

// badAt emits an invalid envelope (forged sender) at a chosen round,
// forcing the engine down its error path mid-run.
type badAt struct {
	id, fireRound int
	rounds        int
}

func (b *badAt) Send(round int) []Envelope {
	if round == b.fireRound {
		return []Envelope{{From: b.id + 1, To: 0, Payload: Bit(true)}}
	}
	return nil
}
func (b *badAt) Deliver(int, []Envelope) { b.rounds++ }
func (b *badAt) Halted() bool            { return b.rounds > 10 }

func TestSequentialErrorMidRun(t *testing.T) {
	ps := []Protocol{&badAt{id: 0, fireRound: 3}, &badAt{id: 1, fireRound: 99}}
	if _, err := Run(Config{Protocols: ps, MaxRounds: 20}); err == nil {
		t.Fatal("invalid envelope accepted")
	}
}

func TestSinglePortDropsBuffersOfDeadTargets(t *testing.T) {
	// A message deposited for a node that crashed before polling must
	// not resurrect: the dead node never receives, and the engine
	// terminates cleanly with the buffer discarded.
	src := &doubleSender{}
	dst := &pollProbe{pollRound: 6}
	ps := []Protocol{src, dst}
	adv := crashAt{node: 1, round: 3, keep: -1}
	res, err := Run(Config{Protocols: ps, MaxRounds: 20, SinglePort: true, Fault: adv})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed.Contains(1) {
		t.Fatal("target not crashed")
	}
	if dst.gotAt != 0 {
		t.Fatalf("crashed node received at round %d", dst.gotAt)
	}
}
