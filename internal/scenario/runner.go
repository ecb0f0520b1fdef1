package scenario

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"lineartime/internal/bitset"
	"lineartime/internal/byzantine"
	"lineartime/internal/checkpoint"
	"lineartime/internal/consensus"
	"lineartime/internal/expander"
	"lineartime/internal/gossip"
	"lineartime/internal/majority"
	"lineartime/internal/obs"
	"lineartime/internal/sim"
	"lineartime/internal/singleport"
)

// defaultRoundSlack is added to a protocol's schedule length to form
// the engine round budget, absorbing the bounded overrun the paper's
// termination arguments allow.
const defaultRoundSlack = 8

// ErrSinglePortParallel reports a parallel dispatch of a single-port
// scenario; the sharded engine is multi-port only.
var ErrSinglePortParallel = errors.New("scenario: parallel execution is multi-port only")

// runtimes pools sim run arenas across Execute calls: a sweep worker
// or experiment loop that executes many scenarios back to back lands
// on a warm Runtime (grown scratch buffers, parked parallel workers)
// instead of rebuilding ~MBs of engine state per run. sync.Pool's
// per-P caching gives each concurrent sweep worker its own arena.
var runtimes = sync.Pool{New: func() any { return sim.NewRuntime() }}

// Execute is the single engine choke point: every simulator run in the
// repository outside internal/sim — the public API, the registry
// experiments, the commands, the lower-bound constructions — dispatches
// through here, so the sequential/parallel decision and its
// constraints live in one place. Runs execute on a pooled run arena;
// the returned Result is detached from it (Clone), so callers may
// retain it freely.
func Execute(cfg sim.Config, p Parallelism) (*sim.Result, error) {
	rt := runtimes.Get().(*sim.Runtime)
	defer runtimes.Put(rt)
	var res *sim.Result
	var err error
	if p.Enabled {
		if cfg.SinglePort {
			return nil, ErrSinglePortParallel
		}
		res, err = rt.RunParallel(cfg, p.Workers)
	} else {
		res, err = rt.Run(cfg)
	}
	if err != nil {
		return nil, err
	}
	return res.Clone(), nil
}

// sendSlabs recycles the few-crashes stack's send buffers: a run's
// ≈2n per-machine sim.Outboxes are cut from one envelope slab
// (consensus.CarveOutboxes) instead of being allocated on each
// machine's first send. A pooled slab is all zero — release clears what
// the run wrote — so it pins no payload between runs.
var sendSlabs sync.Pool

type sendSlab struct{ buf []sim.Envelope }

func getSendSlab(n int) *sendSlab {
	s, _ := sendSlabs.Get().(*sendSlab)
	if s == nil || cap(s.buf) < n {
		s = &sendSlab{buf: make([]sim.Envelope, n)}
	}
	s.buf = s.buf[:n]
	return s
}

// release clears the slab and returns it to the pool; a nil slab (a
// stack that borrowed none) is a no-op.
func (s *sendSlab) release() {
	if s == nil {
		return
	}
	clear(s.buf)
	sendSlabs.Put(s)
}

// Run materializes the spec into a sim.Config, executes it through
// Execute, and returns the unified report.
func Run(sp Spec) (*Report, error) {
	rep, _, err := runSpec(sp, nil)
	return rep, err
}

// runSpec is Run with a seam for the package's tests: wrap, when set,
// replaces the protocol stack the engine drives (the outcome is still
// decoded from the machines materialize built), and the engine's
// result is returned beside the report.
func runSpec(sp Spec, wrap func([]sim.Protocol) []sim.Protocol) (*Report, *sim.Result, error) {
	// The runner reports its own stages around the engine's: the spec
	// materialization (topology + protocol stack + fault layer) as
	// materialize, the outcome evaluation as decode. The engine reports
	// its internal setup/rounds split through the same tracer.
	tr := sp.Tracer
	t0 := time.Now()
	if sp.N <= 0 {
		return nil, nil, fmt.Errorf("scenario: n=%d must be positive", sp.N)
	}
	if _, err := sp.topologyMode(); err != nil {
		return nil, nil, err
	}
	if err := sp.Fault.validate(sp); err != nil {
		return nil, nil, err
	}
	sys, err := materialize(sp)
	if err != nil {
		return nil, nil, err
	}
	// Runs once the outcome is decoded: finish reads the machines, and
	// nothing in the report aliases their buffers.
	defer sys.slab.release()
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
		MaxRounds:   sys.schedule + slackOf(sp),
		SinglePort:  sys.singlePort,
		Observer:    sp.Observer,
		Tracer:      tr,
	}, sp.Exec)
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
	ps         []sim.Protocol
	schedule   int
	singlePort bool
	byz        *bitset.Set
	// little is the expander topology's little-node count (0 when the
	// scenario has no expander overlay), feeding TargetLittleCrashes.
	little int
	// finish evaluates the problem-specific outcome into the report.
	finish func(res *sim.Result, rep *Report)
	// slab, when set, holds the machines' send buffers; once it is
	// released the machines must not run again.
	slab *sendSlab
}

// materialize builds the protocol stack for the spec.
func materialize(sp Spec) (*system, error) {
	switch sp.Problem {
	case Consensus:
		return materializeConsensus(sp)
	case Gossip:
		return materializeGossip(sp)
	case Checkpointing:
		return materializeCheckpointing(sp)
	case ByzantineConsensus:
		return materializeByzantine(sp)
	case AlmostEverywhere:
		return materializeSubroutine(sp, sp.newTopology, func(i int, top *consensus.Topology, input bool) *consensus.AEA {
			return consensus.NewAEA(i, top, input, 0, true)
		})
	case SpreadCommonValue:
		return materializeSubroutine(sp, sp.newBroadcastTopology, func(i int, top *consensus.Topology, input bool) *consensus.SCV {
			return consensus.NewSCV(i, top, input, true, 0, true)
		})
	case MajorityVote:
		return materializeMajority(sp)
	default:
		return nil, fmt.Errorf("scenario: unknown problem %v", sp.Problem)
	}
}

// topologyMode resolves the spec's Topology/Implicit fields into the
// expander construction mode threaded through every overlay of the
// run. Implicit implies the shift family — it is the only locally
// computable one.
func (sp Spec) topologyMode() (expander.Mode, error) {
	switch sp.Topology {
	case TopologyRandomRegular:
		if sp.Implicit {
			return expander.Mode{Family: expander.FamilyShift, Implicit: true}, nil
		}
		return expander.Mode{}, nil
	case TopologyShift:
		return expander.Mode{Family: expander.FamilyShift, Implicit: sp.Implicit}, nil
	default:
		return expander.Mode{}, fmt.Errorf("scenario: unknown topology family %q", sp.Topology)
	}
}

func (sp Spec) topologyOptions() (consensus.TopologyOptions, error) {
	mode, err := sp.topologyMode()
	if err != nil {
		return consensus.TopologyOptions{}, err
	}
	return consensus.TopologyOptions{Seed: sp.Seed, Degree: sp.Degree, Mode: mode}, nil
}

// newTopology builds the t < n/5 expander topology for the spec.
func (sp Spec) newTopology(n, t int) (*consensus.Topology, error) {
	opts, err := sp.topologyOptions()
	if err != nil {
		return nil, err
	}
	return consensus.NewTopology(n, t, opts)
}

// newBroadcastTopology is newTopology for the families that consult the
// graph H: built here, one that cannot be fails materialize, not a machine.
func (sp Spec) newBroadcastTopology(n, t int) (*consensus.Topology, error) {
	top, err := sp.newTopology(n, t)
	if err == nil {
		_, err = top.Broadcast()
	}
	return top, err
}

// newManyTopology builds the any-t topology for the spec.
func (sp Spec) newManyTopology(n, t int) (*consensus.ManyTopology, error) {
	opts, err := sp.topologyOptions()
	if err != nil {
		return nil, err
	}
	return consensus.NewManyTopology(n, t, opts)
}

// boolDecider is the decision surface shared by the consensus
// protocols.
type boolDecider interface {
	Decision() (bool, bool)
}

func materializeConsensus(sp Spec) (*system, error) {
	n, t := sp.N, sp.T
	inputs := sp.BoolInputs
	if len(inputs) != n {
		return nil, fmt.Errorf("scenario: %d inputs for n=%d", len(inputs), n)
	}
	ps := make([]sim.Protocol, n)
	ds := make([]boolDecider, n)
	sys := &system{ps: ps}

	switch sp.Algorithm {
	case FewCrashes:
		top, err := sp.newBroadcastTopology(n, t)
		if err != nil {
			return nil, err
		}
		sys.little = top.L
		sys.slab = getSendSlab(top.OutboxSlabLen())
		rest := sys.slab.buf
		for i := 0; i < n; i++ {
			m := consensus.NewFewCrashes(i, top, inputs[i])
			rest = m.CarveOutboxes(rest)
			ps[i], ds[i] = m, m
			sys.schedule = m.ScheduleLength()
		}
	case ManyCrashes:
		top, err := sp.newManyTopology(n, t)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			m := consensus.NewManyCrashes(i, top, inputs[i])
			ps[i], ds[i] = m, m
			sys.schedule = m.ScheduleLength()
		}
	case Flooding:
		for i := 0; i < n; i++ {
			m := consensus.NewFlooding(i, n, t, inputs[i])
			ps[i], ds[i] = m, m
			sys.schedule = m.ScheduleLength()
		}
	case SinglePortLinear:
		top, err := sp.newBroadcastTopology(n, t)
		if err != nil {
			return nil, err
		}
		sys.little = top.L
		for i := 0; i < n; i++ {
			m := singleport.New(i, top, inputs[i])
			ps[i], ds[i] = m, m
			sys.schedule = m.ScheduleLength()
		}
		sys.singlePort = true
	case EarlyStopping:
		for i := 0; i < n; i++ {
			m := consensus.NewEarlyStopping(i, n, t, inputs[i])
			ps[i], ds[i] = m, m
			sys.schedule = m.MaxRounds()
		}
	case RotatingCoordinator:
		for i := 0; i < n; i++ {
			m := consensus.NewRotatingCoordinator(i, n, t, inputs[i])
			ps[i], ds[i] = m, m
			sys.schedule = m.ScheduleLength()
		}
	default:
		return nil, fmt.Errorf("scenario: unknown consensus algorithm %q", sp.Algorithm)
	}

	sys.finish = func(res *sim.Result, rep *Report) {
		rep.Consensus = consensusOutcome(n, res.Crashed, inputs,
			func(i int) (bool, bool) { return ds[i].Decision() })
	}
	return sys, nil
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

func materializeGossip(sp Spec) (*system, error) {
	n, t := sp.N, sp.T
	rumors := sp.Rumors
	if len(rumors) != n {
		return nil, fmt.Errorf("scenario: %d rumors for n=%d", len(rumors), n)
	}
	ps := make([]sim.Protocol, n)
	extants := make([]func() *gossip.ExtantSet, n)
	sys := &system{ps: ps}

	switch {
	case sp.Algorithm == GossipAllToAll:
		for i := 0; i < n; i++ {
			m := gossip.NewAllToAll(i, n, gossip.Rumor(rumors[i]))
			ps[i] = m
			extants[i] = m.Extant
			sys.schedule = m.ScheduleLength()
		}
	case sp.Algorithm == GossipExpander && sp.Port == SinglePort:
		top, err := sp.newTopology(n, t)
		if err != nil {
			return nil, err
		}
		sys.little = top.L
		sched, err := singleport.NewGossipSchedule(top, sp.Seed)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			m := singleport.NewSPGossip(i, sched, gossip.Rumor(rumors[i]))
			ps[i] = m
			extants[i] = m.Extant
			sys.schedule = m.ScheduleLength()
		}
		sys.singlePort = true
	case sp.Algorithm == GossipExpander:
		top, err := sp.newTopology(n, t)
		if err != nil {
			return nil, err
		}
		sys.little = top.L
		for i := 0; i < n; i++ {
			m := gossip.New(i, top, gossip.Rumor(rumors[i]))
			ps[i] = m
			extants[i] = m.Extant
			sys.schedule = m.ScheduleLength()
		}
	default:
		return nil, fmt.Errorf("scenario: unknown gossip algorithm %q", sp.Algorithm)
	}

	sys.finish = func(res *sim.Result, rep *Report) {
		rep.Gossip = gossipOutcome(n, res.Crashed,
			func(i int) *bitset.Set { return extants[i]().Known() },
			func(i, j int) uint64 { return uint64(extants[i]().Rumor(j)) }, false)
	}
	return sys, nil
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

func materializeCheckpointing(sp Spec) (*system, error) {
	n, t := sp.N, sp.T
	ps := make([]sim.Protocol, n)
	outs := make([]func() (*bitset.Set, bool), n)
	sys := &system{ps: ps}

	switch {
	case sp.Algorithm == CheckpointDirect:
		for i := 0; i < n; i++ {
			m := checkpoint.NewDirect(i, n, t)
			ps[i] = m
			outs[i] = m.Decision
			sys.schedule = m.ScheduleLength()
		}
	case sp.Algorithm == CheckpointExpander && sp.Port == SinglePort:
		top, err := sp.newBroadcastTopology(n, t)
		if err != nil {
			return nil, err
		}
		sys.little = top.L
		sched, err := singleport.NewGossipSchedule(top, sp.Seed)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			m := singleport.NewSPCheckpointing(i, sched)
			ps[i] = m
			outs[i] = m.Decision
			sys.schedule = m.ScheduleLength()
		}
		sys.singlePort = true
	case sp.Algorithm == CheckpointExpander:
		top, err := sp.newBroadcastTopology(n, t)
		if err != nil {
			return nil, err
		}
		sys.little = top.L
		for i := 0; i < n; i++ {
			m := checkpoint.New(i, top)
			ps[i] = m
			outs[i] = m.Decision
			sys.schedule = m.ScheduleLength()
		}
	default:
		return nil, fmt.Errorf("scenario: unknown checkpointing algorithm %q", sp.Algorithm)
	}

	sys.finish = func(res *sim.Result, rep *Report) {
		out := &CheckpointOutcome{Agreement: true}
		var agreed *bitset.Set
		for i := 0; i < n; i++ {
			if res.Crashed.Contains(i) {
				continue
			}
			set, ok := outs[i]()
			if !ok {
				out.Agreement = false
				continue
			}
			if agreed == nil {
				agreed = set
			} else if !agreed.Equal(set) {
				out.Agreement = false
			}
		}
		if agreed != nil && out.Agreement {
			out.ExtantSet = agreed.Elements()
		}
		rep.Checkpoint = out
	}
	return sys, nil
}

// uintDecider is the decision surface of the Byzantine protocols.
type uintDecider interface {
	Decision() (uint64, bool)
}

func materializeByzantine(sp Spec) (*system, error) {
	n, t := sp.N, sp.T
	inputs := sp.Values
	if len(inputs) != n {
		return nil, fmt.Errorf("scenario: %d inputs for n=%d", len(inputs), n)
	}
	mode, err := sp.topologyMode()
	if err != nil {
		return nil, err
	}
	cfg, err := byzantine.NewConfigMode(n, t, sp.Seed, mode)
	if err != nil {
		return nil, err
	}
	corrupted := make(map[int]bool, len(sp.Fault.Corrupted))
	for _, id := range sp.Fault.Corrupted {
		corrupted[id] = true
	}

	ps := make([]sim.Protocol, n)
	ds := make([]uintDecider, n)
	byz := bitset.New(n)
	baseline := sp.Algorithm == DolevStrongAll
	if !baseline && sp.Algorithm != ABConsensus {
		return nil, fmt.Errorf("scenario: unknown byzantine algorithm %q", sp.Algorithm)
	}
	for i := 0; i < n; i++ {
		if corrupted[i] {
			byz.Add(i)
			switch sp.Fault.Strategy {
			case Equivocate:
				ps[i] = byzantine.NewEquivocator(i, cfg, cfg.Authority.Signer(i), inputs[i], inputs[i]+1)
			case Spam:
				ps[i] = byzantine.NewSpammer(i, cfg, cfg.Authority.Signer(i))
			default:
				ps[i] = byzantine.NewSilent(cfg)
			}
			continue
		}
		if baseline {
			m := byzantine.NewDSAll(i, cfg, cfg.Authority.Signer(i), inputs[i])
			ps[i], ds[i] = m, m
		} else {
			m := byzantine.NewABConsensus(i, cfg, cfg.Authority.Signer(i), inputs[i])
			ps[i], ds[i] = m, m
		}
	}
	sys := &system{ps: ps, schedule: cfg.ScheduleLength(), byz: byz}
	sys.finish = func(res *sim.Result, rep *Report) {
		out := &ByzantineOutcome{
			L:         cfg.L,
			Decisions: make([]uint64, n),
			Decided:   make([]bool, n),
			Agreement: true,
		}
		var agreed *uint64
		for i := 0; i < n; i++ {
			if ds[i] == nil {
				continue
			}
			v, ok := ds[i].Decision()
			if !ok {
				out.Agreement = false
				continue
			}
			out.Decisions[i] = v
			out.Decided[i] = true
			if agreed == nil {
				agreed = &v
			} else if *agreed != v {
				out.Agreement = false
			}
		}
		rep.Byzantine = out
	}
	return sys, nil
}

// subroutineMachine is the surface shared by the paper's two consensus
// subroutines, AEA and SCV.
type subroutineMachine interface {
	sim.Protocol
	ScheduleLength() int
	Decided() (value, ok bool)
}

// materializeSubroutine builds a subroutine run: one machine per node
// over the t < n/5 topology newTop builds, from the problem's constructor.
func materializeSubroutine[M subroutineMachine](sp Spec, newTop func(n, t int) (*consensus.Topology, error), machine func(i int, top *consensus.Topology, input bool) M) (*system, error) {
	n := sp.N
	if len(sp.BoolInputs) != n {
		return nil, fmt.Errorf("scenario: %d inputs for n=%d", len(sp.BoolInputs), n)
	}
	top, err := newTop(n, sp.T)
	if err != nil {
		return nil, err
	}
	ps := make([]sim.Protocol, n)
	ms := make([]M, n)
	sys := &system{ps: ps, little: top.L}
	for i := 0; i < n; i++ {
		ms[i] = machine(i, top, sp.BoolInputs[i])
		ps[i] = ms[i]
		sys.schedule = ms[i].ScheduleLength()
	}
	sys.finish = func(res *sim.Result, rep *Report) {
		rep.Subroutine = subroutineOutcome(res.Crashed, ms)
	}
	return sys, nil
}

// subroutineOutcome decodes a finished AEA or SCV run: whether every
// machine decided, and how many of the deciders survived.
func subroutineOutcome[M subroutineMachine](crashed *bitset.Set, ms []M) *SubroutineOutcome {
	out := &SubroutineOutcome{AllDecided: true}
	for i, m := range ms {
		_, ok := m.Decided()
		if !ok {
			out.AllDecided = false
		}
		if ok && !crashed.Contains(i) {
			out.Deciders++
		}
	}
	return out
}

func materializeMajority(sp Spec) (*system, error) {
	n, t := sp.N, sp.T
	votes := sp.BoolInputs
	if len(votes) != n {
		return nil, fmt.Errorf("scenario: %d votes for n=%d", len(votes), n)
	}
	top, err := sp.newBroadcastTopology(n, t)
	if err != nil {
		return nil, err
	}
	ps := make([]sim.Protocol, n)
	ms := make([]*majority.Vote, n)
	sys := &system{ps: ps, little: top.L}
	for i := 0; i < n; i++ {
		ms[i] = majority.New(i, top, votes[i])
		ps[i] = ms[i]
		sys.schedule = ms[i].ScheduleLength()
	}
	sys.finish = func(res *sim.Result, rep *Report) {
		out := &MajorityOutcome{Agreement: true}
		first := false
		for i := 0; i < n; i++ {
			if res.Crashed.Contains(i) {
				continue
			}
			verdict, yes, ballots, ok := ms[i].Verdict()
			if !ok {
				out.Agreement = false
				continue
			}
			if !first {
				out.YesWins = verdict == majority.Yes
				out.YesVotes = yes
				out.Ballots = ballots
				first = true
				continue
			}
			if (verdict == majority.Yes) != out.YesWins ||
				yes != out.YesVotes || ballots != out.Ballots {
				out.Agreement = false
			}
		}
		rep.Majority = out
	}
	return sys, nil
}
