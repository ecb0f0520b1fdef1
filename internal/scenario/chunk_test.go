package scenario

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"lineartime/internal/bitset"
	"lineartime/internal/obs"
	"lineartime/internal/sim"
)

// tamperedProblem wraps a chunk's real adapter to force the failures no
// registry spec can produce: a build that fails, and a shared system
// that escapes or never settles one lane.
type tamperedProblem struct {
	slicedProblem
	buildErr error
	tamper   func(sim.SlicedSystem) sim.SlicedSystem
}

func (p tamperedProblem) build(shape Spec, lanes, maxDelay int) (sim.SlicedSystem, error) {
	if p.buildErr != nil {
		return nil, p.buildErr
	}
	sys, err := p.slicedProblem.build(shape, lanes, maxDelay)
	if err == nil && p.tamper != nil {
		sys = p.tamper(sys)
	}
	return sys, err
}

// laneTamper escapes lane `escape` at its first send and hides every
// halt of lane `stuck` (either may be -1), leaving the rest of the
// wrapped system untouched.
type laneTamper struct {
	sim.SlicedSystem
	escape, stuck int
}

func (l laneTamper) SlicedSend(round, node int, active uint64, out []sim.SlicedMsg) ([]sim.SlicedMsg, uint64) {
	out, esc := l.SlicedSystem.SlicedSend(round, node, active, out)
	if l.escape >= 0 {
		esc |= uint64(1) << l.escape
	}
	return out, esc
}

func (l laneTamper) HaltedLanes(node int) uint64 {
	halted := l.SlicedSystem.HaltedLanes(node)
	if l.stuck >= 0 {
		halted &^= uint64(1) << l.stuck
	}
	return halted
}

// sizedLaneTamper keeps the wrapped system's payload sizing visible to
// the engine, so untouched gossip lanes still count the scalar bits.
type sizedLaneTamper struct {
	laneTamper
	sim.SlicedSizer
}

// nodeless makes RunSliced reject the chunk's system outright.
type nodeless struct{ sim.SlicedSystem }

func (nodeless) N() int { return 0 }

func tamperLanes(escape, stuck int) func(sim.SlicedSystem) sim.SlicedSystem {
	return func(sys sim.SlicedSystem) sim.SlicedSystem {
		lt := laneTamper{SlicedSystem: sys, escape: escape, stuck: stuck}
		if sizer, ok := sys.(sim.SlicedSizer); ok {
			return sizedLaneTamper{laneTamper: lt, SlicedSizer: sizer}
		}
		return lt
	}
}

// TestSlicedChunkFallbacks drives the one chunk runner through every
// way a chunk can fail to slice, for both sliced problems: whatever
// happens, each spec ends up with exactly the report or error
// scenario.Run gives it, lanes the failure does not touch keep the
// sliced run's result (their own tracers never see an engine), and
// re-run lanes go through the scalar engine.
func TestSlicedChunkFallbacks(t *testing.T) {
	const lanes, hit = 64, 5
	problems := []struct {
		name string
		base Spec
	}{
		{"flooding", MustLookup("consensus/flooding").Spec(40, 6, 1)},
		{"gossip", MustLookup("gossip/expander").Spec(40, 6, 1)},
	}
	type chunkCase struct {
		name string
		// mutate edits the chunk's specs; problem wraps its adapter.
		mutate  func(sps []Spec)
		problem func(slicedProblem) slicedProblem
		// rerun lists the lanes that must reach the scalar engine
		// (rerunAll: every lane); stuck is the lane left unsettled.
		rerunAll bool
		rerun    []int
		stuck    int
		// sliced reports whether the sliced engine is entered at all.
		sliced bool
		// gossipOnly marks what flooding has no counterpart of.
		gossipOnly bool
	}
	cases := []chunkCase{
		{name: "clean", sliced: true, stuck: -1},
		{name: "link-fault-construction-error", rerunAll: true, stuck: -1,
			mutate: func(sps []Spec) { sps[hit].Fault = FaultModel{Kind: FaultKind(99)} }},
		// The shape spec's overlay degree: no regular graph has a
		// negative one, so the topology build fails (only gossip builds
		// a topology inside the chunk).
		{name: "topology-error", rerunAll: true, stuck: -1, gossipOnly: true,
			mutate: func(sps []Spec) { sps[0].Degree = -2 }},
		{name: "system-build-error", rerunAll: true, stuck: -1,
			problem: func(p slicedProblem) slicedProblem {
				return tamperedProblem{slicedProblem: p, buildErr: errors.New("no system")}
			}},
		// Every declarative fault model builds a CrashPlan, so no Spec
		// makes RunSliced answer ErrNotSliceable; a system it rejects
		// takes the same exit.
		{name: "run-sliced-rejects", sliced: true, rerunAll: true, stuck: -1,
			problem: func(p slicedProblem) slicedProblem {
				return tamperedProblem{slicedProblem: p,
					tamper: func(sys sim.SlicedSystem) sim.SlicedSystem { return nodeless{sys} }}
			}},
		{name: "one-escaped-lane", sliced: true, rerun: []int{hit}, stuck: -1,
			problem: func(p slicedProblem) slicedProblem {
				return tamperedProblem{slicedProblem: p, tamper: tamperLanes(hit, -1)}
			}},
		{name: "one-unterminated-lane", sliced: true, stuck: hit,
			problem: func(p slicedProblem) slicedProblem {
				return tamperedProblem{slicedProblem: p, tamper: tamperLanes(-1, hit)}
			}},
	}
	for _, pr := range problems {
		for _, c := range cases {
			if c.gossipOnly && pr.base.Problem != Gossip {
				continue
			}
			t.Run(pr.name+"/"+c.name, func(t *testing.T) {
				sps := make([]Spec, lanes)
				logs := make([]*engineLog, lanes)
				idx := make([]int, lanes)
				for i := range sps {
					sps[i] = pr.base
					sps[i].Fault = FaultModel{Kind: OmissionFaults, Rate: 0.1, Seed: uint64(70 + i)}
					idx[i] = i
				}
				if c.mutate != nil {
					c.mutate(sps)
				}
				want := make([]*Report, lanes)
				wantErr := make([]error, lanes)
				for i := range sps {
					want[i], wantErr[i] = Run(sps[i])
					logs[i] = &engineLog{}
					sps[i].Tracer = logs[i]
				}
				st, _ := stackOf(sps[0])
				prob := st.sliced()
				if c.problem != nil {
					prob = c.problem(prob)
				}
				rt := sim.NewRuntime()
				reports := make([]*Report, lanes)
				errs := make([]error, lanes)
				runSlicedChunk(rt, st, prob, sps, idx, reports, errs)

				rerun := make(map[int]bool)
				for _, lane := range c.rerun {
					rerun[lane] = true
				}
				for i := range sps {
					tag := fmt.Sprintf("lane %d", i)
					if i == c.stuck {
						if reports[i] != nil || !errors.Is(errs[i], sim.ErrNoTermination) {
							t.Fatalf("%s: got report %v, error %v; want ErrNoTermination", tag, reports[i], errs[i])
						}
					} else {
						sameOutcome(t, tag, want[i], wantErr[i], reports[i], errs[i])
					}
					// The chunk reports through lane 0's tracer; a re-run
					// lane reports its scalar run through its own. A spec
					// Run rejects before the engine reports nothing.
					var engines []obs.Engine
					if i == 0 && c.sliced {
						engines = append(engines, obs.EngineSliced)
					}
					if (c.rerunAll || rerun[i]) && wantErr[i] == nil {
						engines = append(engines, obs.EngineSequential)
					}
					if !reflect.DeepEqual(logs[i].engines, engines) {
						t.Fatalf("%s: tracer saw engines %v, want %v", tag, logs[i].engines, engines)
					}
				}
			})
		}
	}
}

// TestConsensusOutcomeEdges pins the one consensus decoder's agreement
// and validity rules directly, on the cases the goldens never reach.
func TestConsensusOutcomeEdges(t *testing.T) {
	const n = 4
	set := func(ids ...int) *bitset.Set {
		s := bitset.New(n)
		for _, id := range ids {
			s.Add(id)
		}
		return s
	}
	decide := func(values []int) func(int) (bool, bool) {
		// values[i]: 0 or 1 decided, -1 undecided.
		return func(i int) (bool, bool) { return values[i] == 1, values[i] >= 0 }
	}
	cases := []struct {
		name      string
		crashed   *bitset.Set
		inputs    []bool
		values    []int
		decisions []int
		agreement bool
		validity  bool
	}{
		{"unanimous", set(), []bool{true, false, true, true}, []int{1, 1, 1, 1},
			[]int{1, 1, 1, 1}, true, true},
		{"all-crashed", set(0, 1, 2, 3), []bool{true, false, true, false}, []int{1, 0, 1, 0},
			[]int{-1, -1, -1, -1}, true, true},
		{"one-undecided", set(), []bool{true, true, true, true}, []int{1, 1, -1, 1},
			[]int{1, 1, -1, 1}, false, true},
		{"crashed-undecided-is-ignored", set(2), []bool{true, true, true, true}, []int{1, 1, -1, 1},
			[]int{1, 1, -1, 1}, true, true},
		{"split", set(), []bool{true, false, true, false}, []int{1, 0, 1, 1},
			[]int{1, 0, 1, 1}, false, true},
		{"all-zero-inputs-deciding-one", set(), []bool{false, false, false, false}, []int{1, 1, 1, 1},
			[]int{1, 1, 1, 1}, true, false},
		{"all-one-inputs-one-decides-zero", set(1), []bool{true, true, true, true}, []int{1, 0, 1, 0},
			[]int{1, -1, 1, 0}, false, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := consensusOutcome(n, c.crashed, c.inputs, decide(c.values))
			want := &ConsensusOutcome{Decisions: c.decisions, Agreement: c.agreement, Validity: c.validity}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("got %+v, want %+v", got, want)
			}
		})
	}
}
