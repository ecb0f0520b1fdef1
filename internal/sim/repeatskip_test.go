package sim

import (
	"errors"
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
// have changed something diverges the end state. Every node rests in
// the same rounds — the last rest rounds of every period — sending
// nothing and ignoring an empty inbox, so a span can end on a round
// quiet for every node and resume after it from the same template. A
// lazy node promises no quiet in every other rest, whose rounds then
// execute silently.
type loopNode struct {
	id, n, haltAt int
	period, rest  int
	lazy          bool
	r             *rng.SplitMix64
	// The epoch began in round start; the next one begins in round next.
	start, next int
	seen        uint64
	moved       bool
	acc         uint64
	halted      bool
	out         Outbox
	// stepped records the rounds the node's Send was called in.
	stepped []bool
}

func newLoopNode(id, n, horizon int, seed uint64) *loopNode {
	return &loopNode{
		id: id, n: n, haltAt: horizon + id%5,
		period: 9 + int(seed%7), rest: 1 + int(seed%3), lazy: id == 0,
		r:   rng.New(seed ^ uint64(id)*0x9e3779b97f4a7c15),
		acc: uint64(id) + 1,
	}
}

// resting reports whether round is a rest round.
func (l *loopNode) resting(round int) bool { return round%l.period >= l.period-l.rest }

func (l *loopNode) Send(round int) []Envelope {
	l.stepped = append(l.stepped, make([]bool, round+1-len(l.stepped))...)
	l.stepped[round] = true
	if l.resting(round) {
		return nil
	}
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
	if round >= l.haltAt {
		l.halted = true
	}
	if l.resting(round) && len(inbox) == 0 {
		return
	}
	seen := uint64(len(inbox))
	for _, env := range inbox {
		seen = seen*0x100000001b3 ^ uint64(env.From)<<17 ^ uint64(env.Payload.SizeBits())
	}
	if l.moved = seen != l.seen; l.moved {
		l.seen = seen
		l.acc = l.acc*0x100000001b3 ^ seen ^ uint64(round)<<3
	}
}

func (l *loopNode) Halted() bool { return l.halted }

func (l *loopNode) QuietUntil(round int) int {
	if !l.resting(round) || l.lazy && round/l.period%2 == 1 {
		return round
	}
	return min(round-round%l.period+l.period, l.haltAt)
}

func (l *loopNode) RepeatUntil(round, last int) int {
	if !l.resting(round) && l.start <= last && round < l.next && !l.moved {
		return min(l.next, l.haltAt, round-round%l.period+l.period-l.rest)
	}
	return round
}

func (l *loopNode) Ignores(int) bool { return false }

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
// on a fresh state and on a reused Runtime — against the
// reference engine, which executes every round: same Result (metrics,
// per-round and per-part series included), same machine end states.
// Eligible shapes must repeat rounds; a non-Sleeper machine, an opaque
// fault and a Byzantine set must skip none, and a link filter (whose
// verdicts hash the round) may skip quiet rests but repeat no round. The crash-plan shape declares crashes inside the
// spans, which end before them, and inside the rests, which apply them
// in passing and drop the template. Each shape also runs with MaxRounds
// cut to a round inside the run, where the fast-forward must stop and
// fail as the reference does. On the fault-free shape the test pins the
// rests: some span ends on a quiet rest and resumes after it with no
// round stepped, and a rest the lazy node keeps awake executes silently,
// so the round after it executes too.
func TestRepeatSkipMatchesReference(t *testing.T) {
	rt := NewRuntime()
	for _, c := range napCases() {
		if c.single {
			continue
		}
		repeats := c.skips && c.name != "crash-plan+delay"
		t.Run(c.name, func(t *testing.T) {
			resumed, cutInSpan := false, false
			for _, seed := range []uint64{1, 2, 3, 5, 8, 13, 21} {
				n, horizon := 6+int(seed)%9, 150
				for _, cut := range []int{0, 90 + int(seed)%11} {
					build := func() (Config, []*loopNode) {
						ps, nodes := buildLoops(n, horizon, seed)
						cfg := c.config(ps, n, horizon, seed)
						if cut > 0 {
							cfg.MaxRounds = cut
						}
						return cfg, nodes
					}
					compare := func(tag string, want, got *Result, wantErr, gotErr error, wantNodes, gotNodes []*loopNode) {
						t.Helper()
						if errors.Is(wantErr, ErrNoTermination) != errors.Is(gotErr, ErrNoTermination) || !reflect.DeepEqual(want, got) {
							t.Fatalf("seed %d cut %d: %s: results diverged:\nreference %+v (%v)\n      got %+v (%v)", seed, cut, tag, want, wantErr, got, gotErr)
						}
						for i, w := range wantNodes {
							if g := gotNodes[i]; w.acc != g.acc || w.seen != g.seen || w.halted != g.halted || *w.r != *g.r {
								t.Fatalf("seed %d cut %d: %s: node %d end state diverged", seed, cut, tag, i)
							}
						}
					}
					refCfg, refNodes := build()
					ref, refErr := referenceRun(refCfg)
					if (refErr != nil) != (cut > 0) || refErr != nil && !errors.Is(refErr, ErrNoTermination) {
						t.Fatalf("seed %d cut %d: reference: %v", seed, cut, refErr)
					}

					cfg, nodes := build()
					stepper, err := NewStepper(cfg)
					if err != nil {
						t.Fatal(err)
					}
					st := stepper.st
					res, err := st.run()
					compare("sequential", ref, res, refErr, err, refNodes, nodes)
					t.Logf("seed %d cut %d: skipped %d of %d rounds, %d repeated", seed, cut, st.skipped, st.simulated, st.repeated)
					if repeats && st.repeated == 0 {
						t.Fatalf("seed %d cut %d: an eligible run of %d rounds repeated none", seed, cut, st.simulated)
					}
					if !c.skips && st.skipped != 0 || !repeats && st.repeated != 0 {
						t.Fatalf("seed %d cut %d: an ineligible run skipped %d of %d rounds, %d repeated", seed, cut, st.skipped, st.simulated, st.repeated)
					}
					if cut > 0 && st.last < cut-1 && st.metrics.PerRoundMessages[cut-1] > 0 {
						cutInSpan = true
					}
					if c.name == "no-fault" && cut == 0 {
						resumed = resumed || restResumes(nodes[1], horizon)
						checkLazyRests(t, nodes[0], horizon)
					}

					cfg, nodes = build()
					res, err = rt.Run(cfg)
					compare("pooled run", ref, res, refErr, err, refNodes, nodes)
				}
			}
			if c.name == "no-fault" && (!resumed || !cutInSpan) {
				t.Fatalf("no seed ended a span on a quiet rest and resumed it after (%v), or cut a run inside a repeat span (%v)", resumed, cutInSpan)
			}
		})
	}
}

// restResumes reports whether a node's steps show a span that ended on
// a quiet rest and resumed after it: the round before some rest, the
// rest and the round after stepped no machine.
func restResumes(l *loopNode, horizon int) bool {
	for q := 1; q+l.rest < horizon; q++ {
		if l.resting(q) && !l.resting(q-1) && !l.stepped[q-1] && !l.stepped[q] && !l.stepped[q+l.rest] {
			return true
		}
	}
	return false
}

// checkLazyRests fails unless every rest the lazy node keeps awake
// executed, and so did the round after it: its template is the silent
// rest round, which repeats nothing.
func checkLazyRests(t *testing.T, lazy *loopNode, horizon int) {
	t.Helper()
	for q := 1; q+1 < horizon; q++ {
		if lazy.resting(q) && !lazy.resting(q+1) && q/lazy.period%2 == 1 && (!lazy.stepped[q] || !lazy.stepped[q+1]) {
			t.Fatalf("lazy rest ending in round %d: stepped %v, round after stepped %v", q, lazy.stepped[q], lazy.stepped[q+1])
		}
	}
}
