package sim

import (
	"runtime"
	"testing"
	"time"
)

// badAt emits an invalid envelope (forged sender) at a chosen round,
// forcing the engines down their error paths mid-run.
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

func TestConcurrentErrorShutsDownWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 5; trial++ {
		ps := make([]Protocol, 16)
		for i := range ps {
			fire := 99
			if i == 7 {
				fire = 2
			}
			ps[i] = &badAt{id: i, fireRound: fire}
		}
		if _, err := RunParallel(Config{Protocols: ps, MaxRounds: 20}, 0); err == nil {
			t.Fatal("invalid envelope accepted")
		}
	}
	// All worker goroutines must have exited; allow the runtime a
	// moment to reap them.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
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
