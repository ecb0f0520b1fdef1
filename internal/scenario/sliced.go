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
// Runner, so callers get one uniform call for "run all of these" and
// the engine choice stays invisible: every report and error is
// byte-for-byte what the scalar path would have produced for that Spec.

// sliceable reports whether a spec can run on the bit-sliced engine.
// The sliced path covers the two natively lane-parallel systems — the
// flooding comparator (consensus.SlicedFlooding) and the paper's
// multi-port expander gossip (gossip.SlicedGossip) — under every
// declarative fault model (FaultModel.Declarative); adaptive
// adversaries and the remaining protocol stacks keep the scalar
// engine. EXPERIMENTS.md ("Performance model") documents the rule.
func sliceable(sp Spec) bool {
	if !sp.Fault.Declarative() {
		return false
	}
	switch {
	case sp.Problem == Consensus && sp.Algorithm == Flooding && sp.Port == MultiPort:
		return true
	case sp.Problem == Gossip && sp.Algorithm == GossipExpander && sp.Port == MultiPort:
		return true
	default:
		return false
	}
}

// batchInputsOK checks the per-problem input-length precondition the
// scalar materializers enforce; anything that fails runs scalar so the
// caller sees the exact scalar error.
func batchInputsOK(sp Spec) bool {
	switch sp.Problem {
	case Gossip:
		return len(sp.Rumors) == sp.N
	default:
		return len(sp.BoolInputs) == sp.N
	}
}

// slackOf resolves the effective round slack of a spec.
func slackOf(sp Spec) int {
	if sp.RoundSlack > 0 {
		return sp.RoundSlack
	}
	return defaultRoundSlack
}

// groupKey identifies specs that may share one sliced run: the lanes
// of a run share the system and the round budget; the fault model and
// seed are per-lane wherever the system does not depend on them.
// Flooding has no topology, so its seeds differ freely across lanes —
// that is what makes RunSeeds a single group. Gossip's overlays are
// derived from (seed, topology family, degree), so those fields join
// the key; its rumor values stay per-lane (first-write-wins updates
// make values behaviour-independent).
type groupKey struct {
	problem     Problem
	algorithm   Algorithm
	port        PortModel
	n, t, slack int
	inputs      string
	seed        uint64
	topology    TopologyKind
	implicit    bool
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
		k.topology = sp.Topology
		k.implicit = sp.Implicit
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
// benchmark path. Seeds that share the spec's shape ride the sliced
// engine 64 to a machine word; the rest (non-sliceable specs, escaped
// lanes) fall back to the scalar runner. reports[i] and errs[i] belong
// to seeds[i]; exactly one of them is non-nil.
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
// everything else runs through the scalar Runner. Results are returned
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
		// Anything that would fail Run's preconditions goes scalar so
		// the caller sees the exact scalar error.
		if !sliceable(sp) || sp.N <= 0 || !batchInputsOK(sp) ||
			sp.Fault.validate(sp) != nil {
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
				runSlicedChunk(rt, sps, chunk, reports, errs)
			}
		}
		runtimes.Put(rt)
	}

	runScalar(sps, scalar, reports, errs)
	return reports, errs
}

// runScalar runs the given spec indices through the scalar Runner,
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

// runSlicedChunk executes up to 64 same-shape specs as the lanes of one
// sliced engine run and materializes each lane into its spec's report.
// Any failure to slice — a fault without a declarative crash plan, an
// escaped lane, a topology that cannot be built — falls back to the
// scalar runner for the affected specs, preserving exact scalar
// results.
func runSlicedChunk(rt *sim.Runtime, sps []Spec, idx []int, reports []*Report, errs []error) {
	if sps[idx[0]].Problem == Gossip {
		runSlicedGossipChunk(rt, sps, idx, reports, errs)
		return
	}
	fallback := func(lanes ...int) {
		for _, lane := range lanes {
			i := idx[lane]
			reports[i], errs[i] = Run(sps[i])
		}
	}
	all := make([]int, len(idx))
	for lane := range idx {
		all[lane] = lane
	}

	shape := sps[idx[0]]
	// The chunk reports through the first spec's tracer: lanes of one
	// group share the run, so per-lane attribution is not meaningful.
	tr := shape.Tracer
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	faults := make([]sim.LinkFault, len(idx))
	for lane, i := range idx {
		sp := sps[i]
		// Flooding has no expander overlay, so little = 0 — exactly the
		// value Runner.Run passes for this stack.
		f, err := sp.Fault.LinkFault(sp.N, sp.T, 0, sp.Seed)
		if err != nil {
			fallback(all...)
			return
		}
		faults[lane] = f
	}

	sys := consensus.NewSlicedFlooding(shape.N, shape.T, len(idx), shape.BoolInputs)
	if tr != nil {
		tr.StageDuration(obs.StageMaterialize, time.Since(t0))
	}
	res, err := rt.RunSliced(sim.SlicedConfig{
		System:    sys,
		Lanes:     len(idx),
		MaxRounds: sys.ScheduleLength() + slackOf(shape),
		Faults:    faults,
		Tracer:    tr,
	})
	if err != nil {
		// ErrNotSliceable and config errors: the scalar engine is the
		// authority on what the caller should see.
		fallback(all...)
		return
	}

	any0, any1 := false, false
	for _, in := range shape.BoolInputs {
		if in {
			any1 = true
		} else {
			any0 = true
		}
	}
	// Reports must be materialized before the Runtime's next sliced run:
	// the lane results alias arena memory.
	var t1 time.Time
	if tr != nil {
		t1 = time.Now()
	}
	var escaped []int
	for lane, i := range idx {
		lr := &res.Lanes[lane]
		if lr.Escaped {
			escaped = append(escaped, lane)
			continue
		}
		if lr.Err != nil {
			errs[i] = lr.Err
			continue
		}
		reports[i] = laneReport(sps[i], sys, lane, lr, any0, any1)
	}
	if tr != nil {
		tr.StageDuration(obs.StageMerge, time.Since(t1))
	}
	fallback(escaped...)
}

// runSlicedGossipChunk is runSlicedChunk's gossip arm: the lanes share
// one expander topology (identical by group key) and one
// gossip.SlicedGossip machine, with per-lane fault layers.
func runSlicedGossipChunk(rt *sim.Runtime, sps []Spec, idx []int, reports []*Report, errs []error) {
	fallback := func(lanes ...int) {
		for _, lane := range lanes {
			i := idx[lane]
			reports[i], errs[i] = Run(sps[i])
		}
	}
	all := make([]int, len(idx))
	for lane := range idx {
		all[lane] = lane
	}

	shape := sps[idx[0]]
	tr := shape.Tracer
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	top, err := shape.newTopology(shape.N, shape.T)
	if err != nil {
		fallback(all...)
		return
	}
	faults := make([]sim.LinkFault, len(idx))
	maxDelay := 0
	for lane, i := range idx {
		sp := sps[i]
		f, err := sp.Fault.LinkFault(sp.N, sp.T, top.L, sp.Seed)
		if err != nil {
			fallback(all...)
			return
		}
		faults[lane] = f
		if lf, ok := f.(sim.LinkFilter); ok {
			if d := lf.MaxDelay(); d > maxDelay {
				maxDelay = d
			}
		}
	}

	sys, err := gossip.NewSlicedGossip(top, len(idx), maxDelay)
	if err != nil {
		fallback(all...)
		return
	}
	if tr != nil {
		tr.StageDuration(obs.StageMaterialize, time.Since(t0))
	}
	res, err := rt.RunSliced(sim.SlicedConfig{
		System:    sys,
		Lanes:     len(idx),
		MaxRounds: sys.ScheduleLength() + slackOf(shape),
		Faults:    faults,
		Tracer:    tr,
	})
	if err != nil {
		fallback(all...)
		return
	}

	var t1 time.Time
	if tr != nil {
		t1 = time.Now()
	}
	var escaped []int
	for lane, i := range idx {
		lr := &res.Lanes[lane]
		if lr.Escaped {
			escaped = append(escaped, lane)
			continue
		}
		if lr.Err != nil {
			errs[i] = lr.Err
			continue
		}
		reports[i] = gossipLaneReport(sps[i], sys, lane, lr)
	}
	if tr != nil {
		tr.StageDuration(obs.StageMerge, time.Since(t1))
	}
	fallback(escaped...)
}

// laneReport mirrors Runner.Run's consensus finish for one lane: same
// metrics mapping, same crash list, same agreement/validity rules over
// the lane's decisions.
func laneReport(sp Spec, sys *consensus.SlicedFlooding, lane int, lr *sim.LaneResult, any0, any1 bool) *Report {
	rep := &Report{
		Scenario:  sp.Name,
		Problem:   sp.Problem,
		Algorithm: sp.Algorithm,
		Port:      sp.Port,
		N:         sp.N,
		T:         sp.T,
		Metrics: Metrics{
			Rounds:   lr.Metrics.Rounds,
			Messages: lr.Metrics.Messages,
			Bits:     lr.Metrics.Bits,
		},
		Crashed: lr.Crashed.Elements(),
	}
	bit := uint64(1) << lane
	out := &ConsensusOutcome{
		Decisions: make([]int, sp.N),
		Agreement: true,
		Validity:  true,
	}
	first := -1
	for i := 0; i < sp.N; i++ {
		out.Decisions[i] = -1
		if lr.Crashed.Contains(i) {
			continue
		}
		decided, value := sys.DecisionLanes(i)
		if decided&bit == 0 {
			out.Agreement = false
			continue
		}
		d := 0
		if value&bit != 0 {
			d = 1
		}
		out.Decisions[i] = d
		if first < 0 {
			first = d
		} else if first != d {
			out.Agreement = false
		}
		if (d == 1 && !any1) || (d == 0 && !any0) {
			out.Validity = false
		}
	}
	rep.Consensus = out
	return rep
}

// gossipLaneReport mirrors Runner.Run's gossip finish for one lane:
// the same metrics (with the per-part attribution the scalar
// PartLabeler would have recorded, reconstructed from the per-round
// series), the same extant views (rumor values come from the lane's
// inputs — first-write-wins makes every copy of node j's pair equal to
// j's own rumor) and the same completeness rule.
func gossipLaneReport(sp Spec, sys *gossip.SlicedGossip, lane int, lr *sim.LaneResult) *Report {
	rep := &Report{
		Scenario:  sp.Name,
		Problem:   sp.Problem,
		Algorithm: sp.Algorithm,
		Port:      sp.Port,
		N:         sp.N,
		T:         sp.T,
		Metrics: Metrics{
			Rounds:   lr.Metrics.Rounds,
			Messages: lr.Metrics.Messages,
			Bits:     lr.Metrics.Bits,
		},
		Crashed: lr.Crashed.Elements(),
	}
	// The scalar engine labels a round's traffic with the schedule
	// part at the accounting point; rounds without traffic contribute
	// nothing, and a run with no labeled traffic leaves PerPart nil
	// (toMetrics copies only non-empty maps).
	var perPart map[string]int64
	for r, c := range lr.Metrics.PerRoundMessages {
		if c == 0 {
			continue
		}
		if label := sys.PartAt(r); label != "" {
			if perPart == nil {
				perPart = make(map[string]int64)
			}
			perPart[label] += c
		}
	}
	rep.Metrics.PerPart = perPart

	bit := uint64(1) << lane
	members := bitset.New(sp.N)
	rep.Gossip = gossipOutcome(sp.N, lr.Crashed,
		func(i int) *bitset.Set {
			members.Clear()
			for j := 0; j < sp.N; j++ {
				if sys.Known(i, j)&bit != 0 {
					members.Add(j)
				}
			}
			return members
		},
		func(_, j int) uint64 { return sp.Rumors[j] })
	return rep
}
