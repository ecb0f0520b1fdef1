package sim

import (
	"fmt"
	"reflect"
	"testing"

	"lineartime/internal/rng"
)

// --- Steady-round fast-forward ---------------------------------------

// loopNode is a randomized Sleeper whose traffic repeats: it lives
// through epochs of seeded length, sending one seeded burst — sometimes
// nothing — in every round of an epoch, and answers RepeatUntil
// honestly. Its state is the digest of its last inbox and an
// accumulator that folds in every inbox that differed from the one
// before, together with its round: a repeated inbox changes nothing, so
// skipping its rounds is unobservable, while a skipped round that would
// have changed something diverges the end state.
type loopNode struct {
	id, n, haltAt int
	r             *rng.SplitMix64
	// The epoch began in round start; the next one begins in round next.
	start, next int
	seen        uint64
	moved       bool
	acc         uint64
	halted      bool
	out         Outbox
}

func newLoopNode(id, n, horizon int, seed uint64) *loopNode {
	return &loopNode{
		id: id, n: n, haltAt: horizon + id%5,
		r:   rng.New(seed ^ uint64(id)*0x9e3779b97f4a7c15),
		acc: uint64(id) + 1,
	}
}

func (l *loopNode) Send(round int) []Envelope {
	if round < l.next {
		return l.out
	}
	l.start, l.next = round, round+1+l.r.Intn(24)
	l.out.Reset(0)
	if l.r.Intn(4) > 0 {
		payload := fuzzPayload{bits: 1 + l.r.Intn(7)}
		for k, fanout := 0, 1+l.r.Intn(3); k < fanout; k++ {
			to := l.r.Intn(l.n - 1)
			if to >= l.id {
				to++
			}
			l.out.Add(l.id, to, payload)
		}
	}
	return l.out
}

func (l *loopNode) Deliver(round int, inbox []Envelope) {
	seen := uint64(len(inbox))
	for _, env := range inbox {
		seen = seen*0x100000001b3 ^ uint64(env.From)<<17 ^ uint64(env.Payload.SizeBits())
	}
	if l.moved = seen != l.seen; l.moved {
		l.seen = seen
		l.acc = l.acc*0x100000001b3 ^ seen ^ uint64(round)<<3
	}
	if round >= l.haltAt {
		l.halted = true
	}
}

func (l *loopNode) Halted() bool { return l.halted }

func (l *loopNode) QuietUntil(round int) int { return round }

func (l *loopNode) RepeatUntil(round int) int {
	if l.start < round && round < l.next && !l.moved {
		return min(l.next, l.haltAt)
	}
	return round
}

func buildLoops(n, horizon int, seed uint64) ([]Protocol, []*loopNode) {
	ps := make([]Protocol, n)
	ls := make([]*loopNode, n)
	for i := range ps {
		ls[i] = newLoopNode(i, n, horizon, seed)
		ps[i] = ls[i]
	}
	return ps, ls
}

// TestRepeatSkipMatchesReference pins the steady-round fast-forward —
// on the sequential engine, the pool and a reused Runtime — against the
// reference engine, which executes every round: same Result (metrics,
// per-round and per-part series included), same machine end states.
// Eligible shapes must skip; a non-Sleeper machine, an opaque fault, a
// Byzantine set and a link filter (whose verdicts hash the round) must
// execute every round. The crash-plan shape declares crashes inside
// the spans, which end before them.
func TestRepeatSkipMatchesReference(t *testing.T) {
	rt := NewRuntime()
	defer rt.Close()
	for _, c := range napCases() {
		if c.single {
			continue
		}
		skips := c.skips && c.name != "crash-plan+delay"
		t.Run(c.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 2, 3, 5, 8, 13, 21} {
				n, horizon := 6+int(seed)%9, 150
				build := func() (Config, []*loopNode) {
					ps, nodes := buildLoops(n, horizon, seed)
					return c.config(ps, n, horizon, seed), nodes
				}
				compare := func(tag string, want, got *Result, wantNodes, gotNodes []*loopNode) {
					t.Helper()
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("seed %d: %s: results diverged:\nreference %+v\n      got %+v", seed, tag, want, got)
					}
					for i, w := range wantNodes {
						if g := gotNodes[i]; w.acc != g.acc || w.seen != g.seen || w.halted != g.halted || *w.r != *g.r {
							t.Fatalf("seed %d: %s: node %d end state diverged", seed, tag, i)
						}
					}
				}
				refCfg, refNodes := build()
				ref, err := referenceRun(refCfg)
				if err != nil {
					t.Fatalf("seed %d: reference: %v", seed, err)
				}

				cfg, nodes := build()
				stepper, err := NewStepper(cfg)
				if err != nil {
					t.Fatal(err)
				}
				st := stepper.st
				res, err := st.run()
				if err != nil {
					t.Fatalf("seed %d: sequential: %v", seed, err)
				}
				compare("sequential", ref, res, refNodes, nodes)
				t.Logf("seed %d: skipped %d of %d rounds", seed, st.skipped, st.simulated)
				if skips && st.skipped == 0 {
					t.Fatalf("seed %d: an eligible run of %d rounds skipped none", seed, st.simulated)
				}
				if !skips && st.skipped != 0 {
					t.Fatalf("seed %d: an ineligible run skipped %d of %d rounds", seed, st.skipped, st.simulated)
				}

				cfg, nodes = build()
				res, err = rt.Run(cfg)
				if err != nil {
					t.Fatalf("seed %d: runtime: %v", seed, err)
				}
				compare("pooled run", ref, res, refNodes, nodes)
				for _, workers := range []int{1, 3} {
					cfg, nodes = build()
					res, err = rt.RunParallel(cfg, workers)
					if err != nil {
						t.Fatalf("seed %d: pool(%d): %v", seed, workers, err)
					}
					compare(fmt.Sprintf("pool(%d)", workers), ref, res, refNodes, nodes)
				}
			}
		})
	}
}
