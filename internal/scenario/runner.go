package scenario

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"lineartime/internal/bitset"
	"lineartime/internal/consensus"
	"lineartime/internal/gossip"
	"lineartime/internal/obs"
	"lineartime/internal/sim"
)

// defaultRoundSlack is added to a protocol's schedule length to form
// the engine round budget, absorbing the bounded overrun the paper's
// termination arguments allow.
const defaultRoundSlack = 8

// maxRoundSlack bounds Spec.RoundSlack. The engine keeps per-round
// series as long as the round budget, so a slack without a bound is an
// allocation without one; the experiments use 4.
const maxRoundSlack = 1024

// slackOf resolves the effective round slack of a spec.
func slackOf(sp Spec) int {
	if sp.RoundSlack > 0 {
		return sp.RoundSlack
	}
	return defaultRoundSlack
}

// runtimes pools sim run arenas across Execute calls: a sweep worker or
// experiment loop that executes many scenarios back to back lands on a
// warm Runtime (grown scratch buffers) instead of rebuilding ~MBs of
// engine state per run. sync.Pool's per-P caching gives each concurrent
// sweep worker its own arena.
var runtimes = sync.Pool{New: func() any { return sim.NewRuntime() }}

// Execute is the single engine choke point: every simulator run in the
// repository outside internal/sim — the public API, the registry
// experiments, the commands, the lower-bound constructions — dispatches
// through here. Runs execute on a pooled run arena; the returned Result
// is detached from it (Clone), so callers may retain it freely.
func Execute(cfg sim.Config) (*sim.Result, error) {
	rt := runtimes.Get().(*sim.Runtime)
	defer runtimes.Put(rt)
	res, err := rt.Run(cfg)
	if err != nil {
		return nil, err
	}
	return res.Clone(), nil
}

// runSlabs recycles the per-run memory of the few-crashes and gossip
// stacks: a run's per-machine sim.Outboxes (consensus.CarveOutboxes,
// gossip.NewIn) and gossip rumor arrays are cut from one slab instead of
// being allocated machine by machine. A pooled slab is all zero —
// release clears what the run wrote — so it pins no payload between
// runs.
var runSlabs sync.Pool

type runSlab struct{ gossip.Slab }

// getRunSlab borrows a slab of the given lengths, growing whichever
// part of a pooled one is too short.
func getRunSlab(envs, rumors int) *runSlab {
	s, _ := runSlabs.Get().(*runSlab)
	if s == nil {
		s = &runSlab{}
	}
	s.Envelopes = slices.Grow(s.Envelopes[:0], envs)[:envs]
	s.Rumors = slices.Grow(s.Rumors[:0], rumors)[:rumors]
	return s
}

// release clears the slab and returns it to the pool; a nil slab (a
// stack that borrowed none) is a no-op.
func (s *runSlab) release() {
	if s == nil {
		return
	}
	clear(s.Envelopes)
	clear(s.Rumors)
	runSlabs.Put(s)
}

// Run materializes the spec into a sim.Config, executes it through
// Execute, and returns the unified report.
func Run(sp Spec) (*Report, error) {
	rep, _, err := runSpec(sp, nil)
	return rep, err
}

// runSpec is Run with a seam for the package's tests: wrap, when set,
// replaces the protocol stack the engine drives (the outcome is still
// decoded from the machines the spec's stack built), and the engine's
// result is returned beside the report.
func runSpec(sp Spec, wrap func([]sim.Protocol) []sim.Protocol) (*Report, *sim.Result, error) {
	// The runner reports its own stages around the engine's: the spec
	// materialization (topology + protocol stack + fault layer) as
	// materialize, the outcome evaluation as decode. The engine reports
	// its internal setup/rounds split through the same tracer.
	tr := sp.Tracer
	t0 := time.Now()
	st, err := sp.validate()
	if err != nil {
		return nil, nil, err
	}
	sys, err := st.build(sp)
	if err != nil {
		return nil, nil, err
	}
	// Runs once the outcome is decoded: finish reads the machines, and
	// nothing in the report aliases their buffers. An observer may hold
	// payloads past the run, and gossip snapshots share the slab's
	// rumors, so an observed run keeps its slab.
	if sp.Observer == nil {
		defer sys.slab.release()
	}
	fault, err := sp.Fault.LinkFault(sp.N, sp.T, sys.little, sp.Seed)
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		tr.StageDuration(obs.StageMaterialize, time.Since(t0))
	}
	ps := sys.ps
	if wrap != nil {
		ps = wrap(ps)
	}
	res, err := Execute(sim.Config{
		Protocols:   ps,
		PartLabeler: partLabelerOf(sys.ps),
		Fault:       fault,
		Byzantine:   sys.byz,
		MaxRounds:   st.horizon(sp) + slackOf(sp),
		SinglePort:  sp.Port == SinglePort,
		Observer:    sp.Observer,
		Tracer:      tr,
	})
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	rep := newReport(sp, res.Metrics, res.Crashed)
	sys.finish(res, rep)
	if tr != nil {
		tr.StageDuration(obs.StageDecode, time.Since(t1))
	}
	return rep, res, nil
}

// newReport starts the report of a finished run — scalar, or one lane
// of a sliced one — with everything but the problem's outcome: the
// spec's identity, the engine's metrics (the per-part map copied, and
// left nil when empty) and the crash list.
func newReport(sp Spec, m sim.Metrics, crashed *bitset.Set) *Report {
	rep := &Report{
		Scenario:  sp.Name,
		Problem:   sp.Problem,
		Algorithm: sp.Algorithm,
		Port:      sp.Port,
		N:         sp.N,
		T:         sp.T,
		Metrics: Metrics{
			Rounds:      m.Rounds,
			Messages:    m.Messages,
			Bits:        m.Bits,
			ByzMessages: m.ByzMessages,
			ByzBits:     m.ByzBits,
		},
		Crashed: crashed.Elements(),
	}
	if len(m.PerPart) > 0 {
		rep.Metrics.PerPart = maps.Clone(m.PerPart)
	}
	return rep
}

// partLabelerOf returns the schedule labeler shared by a run's
// protocols, if they provide one (schedules are identical across
// nodes, so the first protocol's labeler covers the system).
func partLabelerOf(ps []sim.Protocol) func(int) string {
	if len(ps) == 0 {
		return nil
	}
	if pl, ok := ps[0].(interface{ PartAt(round int) string }); ok {
		return pl.PartAt
	}
	return nil
}

// system is a materialized scenario: the protocol stack plus the hooks
// the runner needs to configure the engine and evaluate the outcome.
type system struct {
	ps  []sim.Protocol
	byz *bitset.Set
	// little is the expander topology's little-node count (0 when the
	// scenario has no expander overlay), feeding TargetLittleCrashes.
	little int
	// finish evaluates the problem-specific outcome into the report.
	finish func(res *sim.Result, rep *Report)
	// slab, when set, holds the machines' send buffers and rumor arrays;
	// once it is released the machines must not run again.
	slab *runSlab
}

// validate checks everything about the spec that needs nothing built —
// size, round slack, fault model, protocol stack and
// input length — and returns the spec's row of the protocol table. Run
// and ExecuteBatch both start here, so a spec fails the same way on
// either path.
func (sp Spec) validate() (stack, error) {
	if sp.N <= 0 {
		return stack{}, fmt.Errorf("scenario: n=%d must be positive", sp.N)
	}
	if sp.RoundSlack > maxRoundSlack {
		return stack{}, fmt.Errorf("scenario: round slack %d exceeds %d", sp.RoundSlack, maxRoundSlack)
	}
	if err := sp.Fault.validate(sp); err != nil {
		return stack{}, err
	}
	st, ok := stackOf(sp)
	if !ok {
		return stack{}, fmt.Errorf("scenario: no %v stack runs algorithm %q %v", sp.Problem, sp.Algorithm, sp.Port)
	}
	if have, what := sp.inputs(); have != sp.N {
		return stack{}, fmt.Errorf("scenario: %d %s for n=%d", have, what, sp.N)
	}
	return st, nil
}

// inputs returns the length of the per-node input slice the spec's
// problem reads and what it holds; checkpointing reads none.
func (sp Spec) inputs() (int, string) {
	switch sp.Problem {
	case Gossip:
		return len(sp.Rumors), "rumors"
	case ByzantineConsensus:
		return len(sp.Values), "inputs"
	case MajorityVote:
		return len(sp.BoolInputs), "votes"
	case Checkpointing:
		return sp.N, ""
	default:
		return len(sp.BoolInputs), "inputs"
	}
}

func (sp Spec) topologyOptions() consensus.TopologyOptions {
	return consensus.TopologyOptions{Seed: sp.Seed, Degree: sp.Degree}
}

// newTopology builds the t < n/5 expander topology for the spec.
func (sp Spec) newTopology() (*consensus.Topology, error) {
	return consensus.NewTopology(sp.N, sp.T, sp.topologyOptions())
}

// newBroadcastTopology is newTopology for the families that consult the
// graph H: built here, one that cannot be fails materialize, not a machine.
func (sp Spec) newBroadcastTopology() (*consensus.Topology, error) {
	top, err := sp.newTopology()
	if err == nil {
		_, err = top.Broadcast()
	}
	return top, err
}

// consensusOutcome decodes a finished consensus run into its outcome.
// decision(i) is survivor i's decided value, ok=false while undecided.
// Agreement: every survivor decided, and on one value. Validity: every
// decided value is some node's input.
func consensusOutcome(n int, crashed *bitset.Set, inputs []bool, decision func(i int) (value, ok bool)) *ConsensusOutcome {
	out := &ConsensusOutcome{
		Decisions: make([]int, n),
		Agreement: true,
		Validity:  true,
	}
	any0, any1 := slices.Contains(inputs, false), slices.Contains(inputs, true)
	first := -1
	for i := 0; i < n; i++ {
		out.Decisions[i] = -1
		if crashed.Contains(i) {
			continue
		}
		v, ok := decision(i)
		if !ok {
			out.Agreement = false
			continue
		}
		d := 0
		if v {
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
	return out
}

// gossipOutcome decodes a finished gossip run into its outcome. For a
// surviving node i, known(i) is the membership of i's extant set (read
// before the next call, so the caller may reuse one set) and
// rumor(i, j) the rumor i holds for a member j. The run is complete
// when every survivor's membership covers the survivors, one word at a
// time. Nodes whose views are equal — same members, same rumor values —
// get the same map: a complete run decodes into one view, not n. A
// caller whose rumor(i, j) does not depend on i says so with
// nodeIndependent, and equal memberships are then equal views without
// comparing a value.
func gossipOutcome(n int, crashed *bitset.Set, known func(i int) *bitset.Set, rumor func(i, j int) uint64, nodeIndependent bool) *GossipOutcome {
	out := &GossipOutcome{
		Extant:   make([]map[int]uint64, n),
		Complete: true,
	}
	survivors := crashed.Clone()
	survivors.Complement()
	// The distinct views so far; rumors[j] mirrors view[j] for the
	// members, so matching a node against a view costs no map lookups.
	type distinctView struct {
		members *bitset.Set
		rumors  []uint64
		view    map[int]uint64
	}
	var views []distinctView
	for i := 0; i < n; i++ {
		if crashed.Contains(i) {
			continue
		}
		members := known(i)
		if !survivors.SubsetOf(members) {
			out.Complete = false
		}
		for _, v := range views {
			if !v.members.Equal(members) {
				continue
			}
			same := true
			if !nodeIndependent {
				members.ForEach(func(j int) { same = same && rumor(i, j) == v.rumors[j] })
			}
			if same {
				out.Extant[i] = v.view
				break
			}
		}
		if out.Extant[i] != nil {
			continue
		}
		v := distinctView{
			members: members.Clone(),
			rumors:  make([]uint64, n),
			view:    make(map[int]uint64, members.Count()),
		}
		members.ForEach(func(j int) {
			v.rumors[j] = rumor(i, j)
			v.view[j] = v.rumors[j]
		})
		views = append(views, v)
		out.Extant[i] = v.view
	}
	return out
}
