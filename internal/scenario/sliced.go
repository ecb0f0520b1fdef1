package scenario

import (
	"runtime"
	"sync"
	"time"

	"lineartime/internal/bitset"
	"lineartime/internal/consensus"
	"lineartime/internal/gossip"
	"lineartime/internal/obs"
	"lineartime/internal/sim"
)

// This file is the batch entry into the bit-sliced engine: ExecuteBatch
// is the only caller of sim.Runtime.RunSliced in the repository, the
// batch analogue of Execute. A batch of Specs is partitioned into
// sliceable groups — same shape, so up to 64 of them ride one engine
// run as lanes — and a scalar remainder that runs through the ordinary
// Run, so callers get one uniform call for "run all of these" and
// the engine choice stays invisible: every report and error is
// byte-for-byte what the scalar path would have produced for that Spec.

// groupKey identifies specs that may share one sliced run: the lanes
// of a run share the system and the round budget; the fault model and
// seed are per-lane wherever the system does not depend on them.
// Flooding has no topology, so its seeds differ freely across lanes —
// that is what makes RunSeeds a single group. Gossip's overlays are
// derived from (seed, degree), so those fields join
// the key; its rumor values stay per-lane (first-write-wins updates
// make values behaviour-independent).
type groupKey struct {
	problem     Problem
	algorithm   Algorithm
	port        PortModel
	n, t, slack int
	inputs      string
	seed        uint64
	degree      int
}

func keyOf(sp Spec) groupKey {
	k := groupKey{
		problem:   sp.Problem,
		algorithm: sp.Algorithm,
		port:      sp.Port,
		n:         sp.N,
		t:         sp.T,
		slack:     slackOf(sp),
	}
	if sp.Problem == Gossip {
		k.seed = sp.Seed
		k.degree = sp.Degree
		return k
	}
	in := make([]byte, len(sp.BoolInputs))
	for i, b := range sp.BoolInputs {
		if b {
			in[i] = 1
		}
	}
	k.inputs = string(in)
	return k
}

// RunSeeds runs one spec under many seeds — the multi-seed sweep and
// benchmark path — through ExecuteBatch. Only flooding consensus under
// a declarative fault rides the sliced engine here, 64 seeds to a
// machine word: its lanes may differ in seed. Gossip's overlays are the
// seed's, so ExecuteBatch groups gossip lanes by seed and distinct
// seeds are singleton groups that run scalar; every other stack (and
// every escaped lane) is scalar too. reports[i] and errs[i] belong to
// seeds[i]; exactly one of them is non-nil.
func RunSeeds(sp Spec, seeds []uint64) ([]*Report, []error) {
	specs := make([]Spec, len(seeds))
	for i, seed := range seeds {
		specs[i] = sp
		specs[i].Seed = seed
	}
	return ExecuteBatch(specs)
}

// ExecuteBatch runs a batch of specs, slicing where possible: sliceable
// specs of the same shape are grouped into 64-lane sliced engine runs,
// everything else runs through the scalar Run. Results are returned
// in input order and are identical — reports and errors both — to
// running each spec individually through Run. Gossip views
// (GossipOutcome.Extant) are read-only: equal views of a report share
// one map.
func ExecuteBatch(sps []Spec) ([]*Report, []error) {
	reports := make([]*Report, len(sps))
	errs := make([]error, len(sps))

	var scalar []int
	groups := make(map[groupKey][]int)
	var order []groupKey
	for i, sp := range sps {
		// The sliced path covers the stacks with a lane-parallel adapter
		// under every declarative fault model (FaultModel.Declarative);
		// adaptive adversaries and the remaining stacks keep the scalar
		// engine. EXPERIMENTS.md ("Performance model") documents the rule.
		st, err := sp.validate()
		if err != nil {
			errs[i] = err
			continue
		}
		if st.sliced == nil || !sp.Fault.Declarative() {
			scalar = append(scalar, i)
			continue
		}
		k := keyOf(sp)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}

	if len(order) > 0 {
		rt := runtimes.Get().(*sim.Runtime)
		for _, k := range order {
			idx := groups[k]
			for base := 0; base < len(idx); base += sim.MaxLanes {
				chunk := idx[base:min(base+sim.MaxLanes, len(idx))]
				if k.problem == Gossip && len(chunk) < 2 {
					// A lone gossip lane — a singleton group, or the tail
					// of a group of 64k+1 — gains nothing from the word
					// engine (its n² plane setup and n-word merges serve
					// one replica), so the scalar path is both faster and
					// trivially exact.
					scalar = append(scalar, chunk...)
					continue
				}
				st, _ := stackOf(sps[chunk[0]])
				runSlicedChunk(rt, st, st.sliced(), sps, chunk, reports, errs)
			}
		}
		runtimes.Put(rt)
	}

	runScalar(sps, scalar, reports, errs)
	return reports, errs
}

// runScalar runs the given spec indices through the scalar Run,
// fanned across GOMAXPROCS workers (each worker lands on its own
// pooled Runtime via Execute). Runs are independent and deterministic,
// so scheduling cannot change any result.
func runScalar(sps []Spec, idx []int, reports []*Report, errs []error) {
	if len(idx) == 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(idx) {
		workers = len(idx)
	}
	if workers <= 1 {
		for _, i := range idx {
			reports[i], errs[i] = Run(sps[i])
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				reports[i], errs[i] = Run(sps[i])
			}
		}()
	}
	for _, i := range idx {
		next <- i
	}
	close(next)
	wg.Wait()
}

// slicedProblem is what one natively lane-parallel stack contributes
// to a sliced chunk, in the order the chunk runner needs it: the shared
// topology's little-node count (the lanes' fault layers take it), then
// the one system all lanes share, then each settled lane's report.
type slicedProblem interface {
	// open resolves what the lanes share ahead of their fault layers and
	// returns the little count Run would pass for this stack.
	open(shape Spec) (little int, err error)
	// build constructs the shared system for the given number of lanes,
	// whose link filters delay by at most maxDelay rounds.
	build(shape Spec, lanes, maxDelay int) (sim.SlicedSystem, error)
	// decode mirrors Run's finish for one lane: the same report
	// the scalar engine would have produced for sp.
	decode(sp Spec, lane int, lr *sim.LaneResult) *Report
}

// runSlicedChunk executes up to 64 same-shape specs of stack st as the
// lanes of one sliced engine run, through the stack's adapter prob, and
// materializes each lane into its spec's report. Any failure to slice —
// a fault without a declarative crash plan, an escaped lane, a topology
// that cannot be built — falls back to the scalar runner for the
// affected specs, preserving exact scalar results: the scalar engine is
// the authority on what the caller sees.
func runSlicedChunk(rt *sim.Runtime, st stack, prob slicedProblem, sps []Spec, idx []int, reports []*Report, errs []error) {
	fallback := func(specs []int) {
		for _, i := range specs {
			reports[i], errs[i] = Run(sps[i])
		}
	}

	shape := sps[idx[0]]
	// The chunk reports through the first spec's tracer: lanes of one
	// group share the run, so per-lane attribution is not meaningful.
	tr := shape.Tracer
	t0 := time.Now()
	little, err := prob.open(shape)
	if err != nil {
		fallback(idx)
		return
	}
	faults := make([]sim.LinkFault, len(idx))
	maxDelay := 0
	for lane, i := range idx {
		sp := sps[i]
		f, err := sp.Fault.LinkFault(sp.N, sp.T, little, sp.Seed)
		if err != nil {
			fallback(idx)
			return
		}
		faults[lane] = f
		if lf, ok := f.(sim.LinkFilter); ok {
			maxDelay = max(maxDelay, lf.MaxDelay())
		}
	}
	sys, err := prob.build(shape, len(idx), maxDelay)
	if err != nil {
		fallback(idx)
		return
	}
	if tr != nil {
		tr.StageDuration(obs.StageMaterialize, time.Since(t0))
	}
	res, err := rt.RunSliced(sim.SlicedConfig{
		System:    sys,
		Lanes:     len(idx),
		MaxRounds: st.horizon(shape) + slackOf(shape),
		Faults:    faults,
		Tracer:    tr,
	})
	if err != nil {
		// ErrNotSliceable and config errors.
		fallback(idx)
		return
	}

	// Reports must be materialized before the Runtime's next sliced run:
	// the lane results alias arena memory.
	t1 := time.Now()
	var escaped []int
	for lane, i := range idx {
		lr := &res.Lanes[lane]
		switch {
		case lr.Escaped:
			escaped = append(escaped, i)
		case lr.Err != nil:
			errs[i] = lr.Err
		default:
			reports[i] = prob.decode(sps[i], lane, lr)
			judge(sps[i], reports[i])
		}
	}
	if tr != nil {
		tr.StageDuration(obs.StageMerge, time.Since(t1))
	}
	fallback(escaped)
}

// slicedFlooding adapts the flooding comparator: no topology (little is
// 0, exactly the value Run passes for this stack), and the
// scalar consensus decode over the lane's decision bits.
type slicedFlooding struct {
	sys *consensus.SlicedFlooding
}

func (*slicedFlooding) open(Spec) (int, error) { return 0, nil }

func (p *slicedFlooding) build(shape Spec, lanes, _ int) (sim.SlicedSystem, error) {
	p.sys = consensus.NewSlicedFlooding(shape.N, shape.T, lanes, shape.BoolInputs)
	return p.sys, nil
}

func (p *slicedFlooding) decode(sp Spec, lane int, lr *sim.LaneResult) *Report {
	rep := newReport(sp, lr.Metrics, lr.Crashed)
	bit := uint64(1) << lane
	rep.Consensus = consensusOutcome(sp.N, lr.Crashed, func(i int) (bool, bool) {
		decided, value := p.sys.DecisionLanes(i)
		return value&bit != 0, decided&bit != 0
	})
	return rep
}

// slicedGossip adapts the paper's multi-port expander gossip: the lanes
// share one expander topology (identical by group key) and one
// gossip.SlicedGossip machine, with per-lane fault layers.
type slicedGossip struct {
	top   *consensus.Topology
	sys   *gossip.SlicedGossip
	parts consensus.Parts
	// The finished run's extant sets, transposed once for the chunk at
	// the first decode, and the one Set every lane's decode loads them
	// into.
	views   *gossip.LaneViews
	members *bitset.Set
}

func (p *slicedGossip) open(shape Spec) (little int, err error) {
	if p.top, err = shape.newTopology(); err != nil {
		return 0, err
	}
	st, _ := stackOf(shape)
	p.parts = partsOf(shape, st).Parts
	return p.top.L, nil
}

func (p *slicedGossip) build(_ Spec, lanes, maxDelay int) (_ sim.SlicedSystem, err error) {
	if p.sys, err = gossip.NewSlicedGossip(p.top, lanes, maxDelay); err != nil {
		return nil, err
	}
	return p.sys, nil
}

// decode yields the scalar gossip finish for one lane: the same metrics
// (with the per-part attribution the scalar PartLabeler would have
// recorded, reconstructed from the per-round series), the same extant
// views (rumor values come from the lane's inputs — first-write-wins
// makes every copy of node j's pair equal to j's own rumor, which is
// what lets gossipOutcome match views on membership alone).
func (p *slicedGossip) decode(sp Spec, lane int, lr *sim.LaneResult) *Report {
	rep := newReport(sp, lr.Metrics, lr.Crashed)
	// The scalar engine labels a round's traffic with the name of its
	// part; rounds without traffic contribute nothing, and a run with no
	// labeled traffic leaves PerPart nil (newReport copies only
	// non-empty maps). The rounds ascend, so one cursor walks the parts.
	part := 0
	for r, c := range lr.Metrics.PerRoundMessages {
		for part < len(p.parts) && p.parts[part].End <= r {
			part++
		}
		if c == 0 || part == len(p.parts) {
			continue
		}
		if rep.Metrics.PerPart == nil {
			rep.Metrics.PerPart = make(map[string]int64)
		}
		rep.Metrics.PerPart[p.parts[part].Name] += c
	}

	if p.views == nil {
		p.views = p.sys.LaneViews()
		p.members = bitset.New(sp.N)
	}
	rep.Gossip = gossipOutcome(sp.N, lr.Crashed,
		func(i int) (*bitset.Set, []uint64) {
			p.members.LoadWords(p.views.Members(lane, i))
			return p.members, sp.Rumors
		}, true)
	return rep
}
