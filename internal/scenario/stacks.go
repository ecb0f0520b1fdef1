package scenario

import (
	"lineartime/internal/bitset"
	"lineartime/internal/byzantine"
	"lineartime/internal/checkpoint"
	"lineartime/internal/consensus"
	"lineartime/internal/gossip"
	"lineartime/internal/majority"
	"lineartime/internal/sim"
	"lineartime/internal/singleport"
)

// stack is one row of the protocol table: everything the runner knows
// about one (problem, algorithm, port model) cell of the evaluation
// matrix.
type stack struct {
	// parts is the run's part table, from the spec alone: it builds
	// nothing, and a fault-free run of the built machines lasts exactly
	// to its end (early stopping may halt sooner). The runner labels
	// each round's traffic with the name of its part, and Check holds
	// each name's count to its bound. A stack whose machines have no
	// parts to tell apart declares one unnamed span.
	parts func(Spec) consensus.Parts
	// build materializes the protocol stack with its outcome decoder.
	build func(Spec) (*system, error)
	// sliced makes the stack's adapter to the bit-sliced engine; nil
	// keeps every run of the stack scalar.
	sliced func() slicedProblem
}

type stackKey struct {
	problem   Problem
	algorithm Algorithm
	port      PortModel
}

// stacks is the protocol table.
var stacks = map[stackKey]stack{
	{Consensus, FewCrashes, MultiPort}: {
		parts: scheduled((*consensus.Schedule).FewParts),
		build: func(sp Spec) (*system, error) {
			top, err := sp.newBroadcastTopology()
			if err != nil {
				return nil, err
			}
			slab := getRunSlab(sp.N, top.OutboxSlabLen())
			rest := slab.envelopes
			sys := perNode(sp, top.L, func(i int) *consensus.FewCrashes {
				m := &slab.few[i]
				m.Init(i, top, sp.BoolInputs[i])
				rest = m.CarveOutboxes(rest)
				return m
			}, decodeConsensus)
			sys.slab = slab
			return sys, nil
		},
	},
	{Consensus, ManyCrashes, MultiPort}: {
		parts: scheduled((*consensus.Schedule).ManyParts),
		build: func(sp Spec) (*system, error) {
			top, err := consensus.NewManyTopology(sp.N, sp.T, sp.topologyOptions())
			if err != nil {
				return nil, err
			}
			return perNode(sp, 0, func(i int) *consensus.ManyCrashes {
				return consensus.NewManyCrashes(i, top, sp.BoolInputs[i])
			}, decodeConsensus), nil
		},
	},
	{Consensus, Flooding, MultiPort}: {
		parts: func(sp Spec) consensus.Parts { return span(consensus.FloodingRounds(sp.T)) },
		build: func(sp Spec) (*system, error) {
			return perNode(sp, 0, func(i int) *consensus.Flooding {
				return consensus.NewFlooding(i, sp.N, sp.T, sp.BoolInputs[i])
			}, decodeConsensus), nil
		},
		sliced: func() slicedProblem { return &slicedFlooding{} },
	},
	{Consensus, SinglePortLinear, SinglePort}: {
		parts: scheduled((*consensus.Schedule).SPParts),
		build: func(sp Spec) (*system, error) {
			top, err := sp.newBroadcastTopology()
			if err != nil {
				return nil, err
			}
			return perNode(sp, top.L, func(i int) *singleport.LinearConsensus {
				return singleport.New(i, top, sp.BoolInputs[i])
			}, decodeConsensus), nil
		},
	},
	{Consensus, EarlyStopping, MultiPort}: {
		parts: func(sp Spec) consensus.Parts { return span(consensus.EarlyStoppingRounds(sp.T)) },
		build: func(sp Spec) (*system, error) {
			return perNode(sp, 0, func(i int) *consensus.EarlyStopping {
				return consensus.NewEarlyStopping(i, sp.N, sp.T, sp.BoolInputs[i])
			}, decodeConsensus), nil
		},
	},
	{Consensus, RotatingCoordinator, MultiPort}: {
		parts: func(sp Spec) consensus.Parts { return span(consensus.CoordinatorRounds(sp.N, sp.T)) },
		build: func(sp Spec) (*system, error) {
			return perNode(sp, 0, func(i int) *consensus.RotatingCoordinator {
				return consensus.NewRotatingCoordinator(i, sp.N, sp.T, sp.BoolInputs[i])
			}, decodeConsensus), nil
		},
	},
	{Gossip, GossipExpander, MultiPort}: {
		parts: scheduled((*consensus.Schedule).GossipParts),
		build: func(sp Spec) (*system, error) {
			top, err := sp.newTopology()
			if err != nil {
				return nil, err
			}
			slab := getRunSlab(0, 0)
			slab.gossip.Reserve(top)
			sys := perNode(sp, top.L, func(i int) *gossip.Gossip {
				return gossip.NewIn(i, top, gossip.Rumor(sp.Rumors[i]), &slab.gossip)
			}, decodeGossip)
			sys.slab = slab
			return sys, nil
		},
		sliced: func() slicedProblem { return &slicedGossip{} },
	},
	{Gossip, GossipExpander, SinglePort}: {
		parts: func(sp Spec) consensus.Parts { return span(sp.singlePortGossip()) },
		build: func(sp Spec) (*system, error) {
			top, sched, err := sp.newGossipSchedule(sp.newTopology)
			if err != nil {
				return nil, err
			}
			return perNode(sp, top.L, func(i int) *singleport.SPGossip {
				return singleport.NewSPGossip(i, sched, gossip.Rumor(sp.Rumors[i]))
			}, decodeGossip), nil
		},
	},
	{Gossip, GossipAllToAll, MultiPort}: {
		parts: func(Spec) consensus.Parts { return span(gossip.AllToAllRounds) },
		build: func(sp Spec) (*system, error) {
			return perNode(sp, 0, func(i int) *gossip.AllToAll {
				return gossip.NewAllToAll(i, sp.N, gossip.Rumor(sp.Rumors[i]))
			}, decodeGossip), nil
		},
	},
	{Checkpointing, CheckpointExpander, MultiPort}: {
		parts: scheduled((*consensus.Schedule).CheckpointParts),
		build: func(sp Spec) (*system, error) {
			top, err := sp.newBroadcastTopology()
			if err != nil {
				return nil, err
			}
			return perNode(sp, top.L, func(i int) *checkpoint.Checkpointing {
				return checkpoint.New(i, top)
			}, decodeCheckpoint), nil
		},
	},
	{Checkpointing, CheckpointExpander, SinglePort}: {
		parts: func(sp Spec) consensus.Parts { return span(sp.singlePortGossip() + sp.schedule().SP) },
		build: func(sp Spec) (*system, error) {
			top, sched, err := sp.newGossipSchedule(sp.newBroadcastTopology)
			if err != nil {
				return nil, err
			}
			return perNode(sp, top.L, func(i int) *singleport.SPCheckpointing {
				return singleport.NewSPCheckpointing(i, sched)
			}, decodeCheckpoint), nil
		},
	},
	{Checkpointing, CheckpointDirect, MultiPort}: {
		parts: func(sp Spec) consensus.Parts { return span(checkpoint.DirectRounds(sp.T)) },
		build: func(sp Spec) (*system, error) {
			return perNode(sp, 0, func(i int) *checkpoint.Direct {
				return checkpoint.NewDirect(i, sp.N, sp.T)
			}, decodeCheckpoint), nil
		},
	},
	{ByzantineConsensus, ABConsensus, MultiPort}: {
		parts: func(sp Spec) consensus.Parts { return byzantine.Parts(sp.N, sp.T) },
		build: buildByzantine,
	},
	{ByzantineConsensus, DolevStrongAll, MultiPort}: {
		parts: func(sp Spec) consensus.Parts { return span(byzantine.DolevStrongRounds(sp.T)) },
		build: buildByzantine,
	},
	{AlmostEverywhere, AEA, MultiPort}: {
		parts: scheduled((*consensus.Schedule).AEAParts),
		build: func(sp Spec) (*system, error) {
			top, err := sp.newTopology()
			if err != nil {
				return nil, err
			}
			return perNode(sp, top.L, func(i int) *consensus.AEA {
				return consensus.NewAEA(i, top, sp.BoolInputs[i], 0, true)
			}, decodeSubroutine), nil
		},
	},
	{SpreadCommonValue, SCV, MultiPort}: {
		parts: scheduled((*consensus.Schedule).SCVParts),
		build: func(sp Spec) (*system, error) {
			top, err := sp.newBroadcastTopology()
			if err != nil {
				return nil, err
			}
			return perNode(sp, top.L, func(i int) *consensus.SCV {
				return consensus.NewSCV(i, top, sp.BoolInputs[i], true, 0, true)
			}, decodeSubroutine), nil
		},
	},
	{MajorityVote, Majority, MultiPort}: {
		parts: func(sp Spec) consensus.Parts { return span(sp.schedule().Checkpoint) },
		build: func(sp Spec) (*system, error) {
			top, err := sp.newBroadcastTopology()
			if err != nil {
				return nil, err
			}
			return perNode(sp, top.L, func(i int) *majority.Vote {
				return majority.New(i, top, sp.BoolInputs[i])
			}, decodeMajority), nil
		},
	},
}

// stackOf returns the spec's row of the protocol table.
func stackOf(sp Spec) (stack, bool) {
	st, ok := stacks[stackKey{sp.Problem, sp.Algorithm, sp.Port}]
	return st, ok
}

// horizon is the run's schedule length: the end of its part table.
func (st stack) horizon(sp Spec) int { return partsOf(sp, st).End() }

// scheduled makes a stack's parts function from a part declaration of
// the spec's round plan.
func scheduled(parts func(*consensus.Schedule) consensus.Parts) func(Spec) consensus.Parts {
	return func(sp Spec) consensus.Parts {
		s := sp.schedule()
		return parts(&s)
	}
}

// span is the part table of a stack whose machines have no parts to
// tell apart: one unnamed span of the given length.
func span(end int) consensus.Parts { return consensus.Parts{{End: end}} }

// schedule is the round plan of the spec's t < n/5 overlays, computed
// without building them.
func (sp Spec) schedule() consensus.Schedule { return consensus.NewSchedule(sp.N, sp.T, sp.Degree) }

// singlePortGossip is the single-port gossip schedule's length.
func (sp Spec) singlePortGossip() int {
	s := sp.schedule()
	return singleport.GossipLength(sp.N, sp.T, &s)
}

// newGossipSchedule builds the single-port gossip schedule over the
// topology newTop builds.
func (sp Spec) newGossipSchedule(newTop func() (*consensus.Topology, error)) (*consensus.Topology, *singleport.GossipSchedule, error) {
	top, err := newTop()
	if err != nil {
		return nil, nil, err
	}
	sched, err := singleport.NewGossipSchedule(top, sp.Seed)
	return top, sched, err
}

// perNode assembles a system of one machine per node, with little the
// topology's little-node count (0 without an expander topology) and
// decode the outcome decoder the finished run's machines go through.
func perNode[M sim.Protocol](sp Spec, little int, machine func(i int) M, decode func(Spec, []M, *sim.Result, *Report)) *system {
	ps := make([]sim.Protocol, sp.N)
	ms := make([]M, sp.N)
	for i := range ms {
		ms[i] = machine(i)
		ps[i] = ms[i]
	}
	return &system{ps: ps, little: little, finish: func(res *sim.Result, rep *Report) { decode(sp, ms, res, rep) }}
}

func decodeConsensus[M interface{ Decision() (bool, bool) }](sp Spec, ms []M, res *sim.Result, rep *Report) {
	rep.Consensus = consensusOutcome(sp.N, res.Crashed, func(i int) (bool, bool) { return ms[i].Decision() })
}

func decodeGossip[M interface{ Extant() *gossip.ExtantSet }](sp Spec, ms []M, res *sim.Result, rep *Report) {
	rep.Gossip = gossipOutcome(sp.N, res.Crashed,
		func(i int) (*bitset.Set, []gossip.Rumor) { return ms[i].Extant().View() }, false)
}

// decodeCheckpoint emits the agreed set iff every survivor decided one
// set; Check reads its absence as broken agreement.
func decodeCheckpoint[M interface{ Decision() (*bitset.Set, bool) }](_ Spec, ms []M, res *sim.Result, rep *Report) {
	rep.Checkpoint = &CheckpointOutcome{}
	var agreed *bitset.Set
	for i, m := range ms {
		if res.Crashed.Contains(i) {
			continue
		}
		set, ok := m.Decision()
		if !ok || agreed != nil && !agreed.Equal(set) {
			return
		}
		agreed = set
	}
	if agreed != nil {
		rep.Checkpoint.ExtantSet = agreed.Elements()
	}
}

// decodeSubroutine decodes a finished AEA or SCV run: whether every
// machine decided, and how many of the deciders survived.
func decodeSubroutine[M interface{ Decided() (bool, bool) }](_ Spec, ms []M, res *sim.Result, rep *Report) {
	out := &SubroutineOutcome{AllDecided: true}
	for i, m := range ms {
		_, ok := m.Decided()
		if !ok {
			out.AllDecided = false
		}
		if ok && !res.Crashed.Contains(i) {
			out.Deciders++
		}
	}
	rep.Subroutine = out
}

func decodeMajority(_ Spec, ms []*majority.Vote, res *sim.Result, rep *Report) {
	out := &MajorityOutcome{Agreement: true}
	first := false
	for i, m := range ms {
		if res.Crashed.Contains(i) {
			continue
		}
		verdict, yes, ballots, ok := m.Verdict()
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

// buildByzantine assembles an authenticated-Byzantine run: the honest
// machines of the spec's algorithm, and the corrupted nodes' adversarial
// protocols.
func buildByzantine(sp Spec) (*system, error) {
	n, inputs := sp.N, sp.Values
	cfg, err := byzantine.NewConfig(n, sp.T, sp.Seed)
	if err != nil {
		return nil, err
	}
	corrupted := make(map[int]bool, len(sp.Fault.Corrupted))
	for _, id := range sp.Fault.Corrupted {
		corrupted[id] = true
	}

	ps := make([]sim.Protocol, n)
	ds := make([]interface{ Decision() (uint64, bool) }, n)
	byz := bitset.New(n)
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
		if sp.Algorithm == DolevStrongAll {
			m := byzantine.NewDSAll(i, cfg, cfg.Authority.Signer(i), inputs[i])
			ps[i], ds[i] = m, m
		} else {
			m := byzantine.NewABConsensus(i, cfg, cfg.Authority.Signer(i), inputs[i])
			ps[i], ds[i] = m, m
		}
	}
	sys := &system{ps: ps, byz: byz}
	sys.finish = func(_ *sim.Result, rep *Report) {
		out := &ByzantineOutcome{
			L:         cfg.L,
			Decisions: make([]uint64, n),
			Decided:   make([]bool, n),
		}
		for i, d := range ds {
			if d == nil {
				continue
			}
			if v, ok := d.Decision(); ok {
				out.Decisions[i], out.Decided[i] = v, true
			}
		}
		rep.Byzantine = out
	}
	return sys, nil
}
