package sim

import (
	"testing"

	"lineartime/internal/rng"
)

// floodNode is a richer test protocol for the engine-equivalence test:
// nodes flood a bit over a ring with pseudo-random extra edges and halt
// after a fixed horizon, so the transcript exercises multi-message
// rounds, ordering, and crashes.
type floodNode struct {
	id, n   int
	value   bool
	links   []int
	horizon int
	rounds  int
	sendIt  bool
}

func newFloodNode(id, n, horizon int, seed uint64) *floodNode {
	r := rng.New(seed + uint64(id)*7919)
	links := []int{(id + 1) % n, (id + n - 1) % n}
	links = append(links, r.Intn(n))
	f := &floodNode{id: id, n: n, links: links, horizon: horizon}
	if id == 0 {
		f.value = true
		f.sendIt = true
	}
	return f
}

func (f *floodNode) Send(round int) []Envelope {
	if !f.sendIt {
		return nil
	}
	f.sendIt = false
	var out []Envelope
	for _, to := range f.links {
		if to != f.id {
			out = append(out, Envelope{From: f.id, To: to, Payload: Bit(true)})
		}
	}
	return out
}

func (f *floodNode) Deliver(round int, inbox []Envelope) {
	if len(inbox) > 0 && !f.value {
		f.value = true
		f.sendIt = true
	}
	f.rounds++
}

func (f *floodNode) Halted() bool { return f.rounds >= f.horizon }

func buildFlood(n, horizon int, seed uint64) ([]Protocol, []*floodNode) {
	ps := make([]Protocol, n)
	fs := make([]*floodNode, n)
	for i := 0; i < n; i++ {
		f := newFloodNode(i, n, horizon, seed)
		ps[i], fs[i] = f, f
	}
	return ps, fs
}

func TestConcurrentMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		n, horizon := 24, 12
		seqPs, seqNodes := buildFlood(n, horizon, seed)
		conPs, conNodes := buildFlood(n, horizon, seed)
		adv1 := crashAt{node: 3, round: 2, keep: 1}
		adv2 := crashAt{node: 3, round: 2, keep: 1}

		seqRes, err := Run(Config{Protocols: seqPs, Fault: adv1, MaxRounds: 100})
		if err != nil {
			t.Fatal(err)
		}
		conRes, err := RunParallel(Config{Protocols: conPs, Fault: adv2, MaxRounds: 100}, 0)
		if err != nil {
			t.Fatal(err)
		}

		if seqRes.Metrics.Rounds != conRes.Metrics.Rounds {
			t.Fatalf("seed %d: rounds %d vs %d", seed, seqRes.Metrics.Rounds, conRes.Metrics.Rounds)
		}
		if seqRes.Metrics.Messages != conRes.Metrics.Messages {
			t.Fatalf("seed %d: messages %d vs %d", seed, seqRes.Metrics.Messages, conRes.Metrics.Messages)
		}
		if seqRes.Metrics.Bits != conRes.Metrics.Bits {
			t.Fatalf("seed %d: bits %d vs %d", seed, seqRes.Metrics.Bits, conRes.Metrics.Bits)
		}
		if !seqRes.Crashed.Equal(conRes.Crashed) {
			t.Fatalf("seed %d: crash sets differ", seed)
		}
		for i := range seqNodes {
			if seqNodes[i].value != conNodes[i].value {
				t.Fatalf("seed %d: node %d final value differs", seed, i)
			}
			if seqRes.HaltedAt[i] != conRes.HaltedAt[i] {
				t.Fatalf("seed %d: node %d halted at %d vs %d",
					seed, i, seqRes.HaltedAt[i], conRes.HaltedAt[i])
			}
		}
	}
}

func TestConcurrentRejectsSinglePort(t *testing.T) {
	ps, _ := buildFlood(4, 2, 1)
	_ = ps
	cfg := Config{Protocols: ps, MaxRounds: 10, SinglePort: true}
	if _, err := RunParallel(cfg, 0); err == nil {
		t.Fatal("concurrent runtime accepted single-port mode")
	}
}

func TestConcurrentErrors(t *testing.T) {
	if _, err := RunParallel(Config{MaxRounds: 5}, 0); err == nil {
		t.Fatal("empty protocols accepted")
	}
	ps, _ := buildFlood(4, 2, 1)
	if _, err := RunParallel(Config{Protocols: ps}, 0); err == nil {
		t.Fatal("zero MaxRounds accepted")
	}
}

func TestConcurrentNoTermination(t *testing.T) {
	ps := []Protocol{&neverHalt{}, &neverHalt{}}
	if _, err := RunParallel(Config{Protocols: ps, MaxRounds: 4}, 0); err == nil {
		t.Fatal("non-terminating run accepted")
	}
}
