package scenario

import (
	"fmt"
	"sort"
)

// Definition is a registered scenario family: one cell of the
// evaluation matrix (problem × algorithm × port model, optionally
// bound to a fault model), named so commands and experiments can
// enumerate and materialize it at any size. The size dimension is
// bound at materialization time via Spec; fault-bound rows carry
// their FaultModel, while the plain protocol stacks leave the fault
// dimension to the caller.
type Definition struct {
	// Name is the registry key,
	// "<problem>/<algorithm>[/single-port][/<fault>]".
	Name      string
	Problem   Problem
	Algorithm Algorithm
	Port      PortModel
	// Fault is the row's bound fault model; the zero value leaves the
	// spec fault-free for the caller to fill in. Size-relative
	// parameters (e.g. a partition Cut of 0) resolve against n at
	// materialization.
	Fault FaultModel
	// MayBreak lists the guarantees (Check) the row's bound fault is
	// expected to break: a run of the row that breaks any other one is a
	// bug, and each listed one breaks on some seed.
	MayBreak []Guarantee
	// Experiments lists the EXPERIMENTS.md experiment ids that
	// exercise this cell (golden-matrix bookkeeping).
	Experiments []string
	// About is a one-line description (paper section and claim).
	About string
}

// Spec materializes the definition at size (n, t) with the given seed:
// canonical per-problem inputs, the definition's fault model (none for
// the plain protocol stacks). Callers adjust the returned value (fault
// model, inputs) before passing it to Run.
func (d Definition) Spec(n, t int, seed uint64) Spec {
	sp := Spec{
		Name:      d.Name,
		Problem:   d.Problem,
		Algorithm: d.Algorithm,
		Port:      d.Port,
		N:         n,
		T:         t,
		Seed:      seed,
		Fault:     d.Fault,
	}
	switch d.Problem {
	case Consensus, AlmostEverywhere, MajorityVote:
		// Every third node inputs 1, the mixed-input workload of every
		// committed experiment.
		in := make([]bool, n)
		for i := range in {
			in[i] = i%3 == 0
		}
		sp.BoolInputs = in
	case SpreadCommonValue:
		// 3n/5 holders, the Theorem 6 threshold workload.
		in := make([]bool, n)
		for i := range in {
			in[i] = i < 3*n/5
		}
		sp.BoolInputs = in
	case Gossip:
		rumors := make([]uint64, n)
		for i := range rumors {
			rumors[i] = uint64(i)
		}
		sp.Rumors = rumors
	case ByzantineConsensus:
		values := make([]uint64, n)
		for i := range values {
			values[i] = uint64(i)
		}
		sp.Values = values
	}
	return sp
}

// registry holds the definitions in registration order plus a name
// index. Registration happens in package init (and tests); lookups are
// read-only afterwards, so no locking.
var (
	registryOrder []string
	registryByKey = make(map[string]Definition)
)

// Register adds a definition. It panics on an empty or duplicate name:
// registrations are package-init wiring, and a collision is a
// programming error.
func Register(d Definition) {
	if d.Name == "" {
		panic("scenario: Register with empty name")
	}
	if _, dup := registryByKey[d.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", d.Name))
	}
	registryByKey[d.Name] = d
	registryOrder = append(registryOrder, d.Name)
}

// Lookup returns the definition registered under name.
func Lookup(name string) (Definition, bool) {
	d, ok := registryByKey[name]
	return d, ok
}

// MustLookup returns the definition registered under name, panicking
// if it is absent — for the built-in names, which the golden matrix
// test pins.
func MustLookup(name string) Definition {
	d, ok := registryByKey[name]
	if !ok {
		panic(fmt.Sprintf("scenario: unknown scenario %q", name))
	}
	return d
}

// Names returns all registered names, sorted.
func Names() []string {
	names := append([]string(nil), registryOrder...)
	sort.Strings(names)
	return names
}

// All returns the definitions in registration order.
func All() []Definition {
	ds := make([]Definition, 0, len(registryOrder))
	for _, name := range registryOrder {
		ds = append(ds, registryByKey[name])
	}
	return ds
}

// ByProblem returns the definitions solving p, in registration order.
func ByProblem(p Problem) []Definition {
	var ds []Definition
	for _, name := range registryOrder {
		if d := registryByKey[name]; d.Problem == p {
			ds = append(ds, d)
		}
	}
	return ds
}

// The built-in matrix: every protocol stack the paper evaluates. The
// golden matrix test (registry_test.go) pins this list, so dropping a
// row of the paper's tables fails CI.
func init() {
	for _, d := range []Definition{
		{
			Name: "consensus/few-crashes", Problem: Consensus, Algorithm: FewCrashes, Port: MultiPort,
			Experiments: []string{"E4", "E11", "T1"},
			About:       "§4.3 Few-Crashes-Consensus: t < n/5, O(t+log n) rounds, O(n+t log t) bits",
		},
		{
			Name: "consensus/many-crashes", Problem: Consensus, Algorithm: ManyCrashes, Port: MultiPort,
			Experiments: []string{"E5"},
			About:       "§4.4 Many-Crashes-Consensus: any t < n, ≤ n+3(1+lg n) rounds",
		},
		{
			Name: "consensus/flooding", Problem: Consensus, Algorithm: Flooding, Port: MultiPort,
			Experiments: []string{"E11"},
			About:       "Θ(n²)-message textbook comparator",
		},
		{
			Name: "consensus/single-port", Problem: Consensus, Algorithm: SinglePortLinear, Port: SinglePort,
			Experiments: []string{"E9", "T1"},
			About:       "§8 Linear-Consensus in the single-port model",
		},
		{
			Name: "consensus/early-stopping", Problem: Consensus, Algorithm: EarlyStopping, Port: MultiPort,
			Experiments: nil,
			About:       "related-work early-stopping comparator: min(f+3, t+3) rounds",
		},
		{
			Name: "consensus/rotating-coordinator", Problem: Consensus, Algorithm: RotatingCoordinator, Port: MultiPort,
			Experiments: []string{"E11"},
			About:       "rotating-coordinator comparator: t+1 rounds, Θ(t·n) messages",
		},
		{
			Name: "gossip/expander", Problem: Gossip, Algorithm: GossipExpander, Port: MultiPort,
			Experiments: []string{"E6", "T1"},
			About:       "§5 gossip: O(log n·log t) rounds, O(n+t log n log t) messages",
		},
		{
			Name: "gossip/expander/single-port", Problem: Gossip, Algorithm: GossipExpander, Port: SinglePort,
			Experiments: []string{"T1"},
			About:       "§8 single-port adaptation of §5 gossip",
		},
		{
			Name: "gossip/all-to-all", Problem: Gossip, Algorithm: GossipAllToAll, Port: MultiPort,
			Experiments: nil,
			About:       "all-to-all gossip comparator",
		},
		{
			Name: "checkpoint/expander", Problem: Checkpointing, Algorithm: CheckpointExpander, Port: MultiPort,
			Experiments: []string{"E7", "T1"},
			About:       "§6 checkpointing",
		},
		{
			Name: "checkpoint/expander/single-port", Problem: Checkpointing, Algorithm: CheckpointExpander, Port: SinglePort,
			Experiments: []string{"T1"},
			About:       "§8 single-port adaptation of §6 checkpointing",
		},
		{
			Name: "checkpoint/direct", Problem: Checkpointing, Algorithm: CheckpointDirect, Port: MultiPort,
			Experiments: []string{"E7"},
			About:       "direct O(tn)-message comparator",
		},
		{
			Name: "byzantine/ab-consensus", Problem: ByzantineConsensus, Algorithm: ABConsensus, Port: MultiPort,
			Experiments: []string{"E8", "T1"},
			About:       "§7 AB-Consensus: O(t) rounds, O(t²+n) non-faulty messages",
		},
		{
			Name: "byzantine/dolev-strong-all", Problem: ByzantineConsensus, Algorithm: DolevStrongAll, Port: MultiPort,
			Experiments: nil,
			About:       "all-nodes Dolev–Strong comparator",
		},
		{
			Name: "aea/expander", Problem: AlmostEverywhere, Algorithm: AEA, Port: MultiPort,
			Experiments: []string{"E2"},
			About:       "§3 Almost-Everywhere Agreement: ≥ 3n/5 deciders, O(t) rounds, O(n) messages",
		},
		{
			Name: "scv/expander", Problem: SpreadCommonValue, Algorithm: SCV, Port: MultiPort,
			Experiments: []string{"E3"},
			About:       "§4 Spread-Common-Value: O(log t) rounds, O(t log t) messages",
		},
		{
			Name: "majority/expander", Problem: MajorityVote, Algorithm: Majority, Port: MultiPort,
			Experiments: nil,
			About:       "§9 extension: exact majority tally over an agreed ballot set",
		},
		// The link-fault rows: the paper's stacks under the omission,
		// partition and delay models of internal/link, widening the
		// matrix beyond the crash-only adversary (the §2 model admits
		// them all). E12 sweeps these.
		{
			Name: "consensus/few-crashes/omission", Problem: Consensus, Algorithm: FewCrashes, Port: MultiPort,
			Fault:       FaultModel{Kind: OmissionFaults, Rate: 0.05},
			Experiments: []string{"E12"},
			About:       "§4.3 consensus over lossy links: 5% per-message omission",
		},
		{
			Name: "consensus/few-crashes/delay", Problem: Consensus, Algorithm: FewCrashes, Port: MultiPort,
			Fault:       FaultModel{Kind: DelayedLinks, Delay: 2},
			Experiments: []string{"E12"},
			About:       "§4.3 consensus under adversarial delivery up to 2 rounds late",
		},
		{
			Name: "consensus/flooding/partition", Problem: Consensus, Algorithm: Flooding, Port: MultiPort,
			Fault:       FaultModel{Kind: PartitionWindow, WindowStart: 1, WindowEnd: 4},
			Experiments: []string{"E12"},
			About:       "flooding comparator through an n/2 split for rounds [1,4), then healed",
		},
		{
			Name: "gossip/expander/omission", Problem: Gossip, Algorithm: GossipExpander, Port: MultiPort,
			Fault:       FaultModel{Kind: OmissionFaults, Rate: 0.05},
			Experiments: []string{"E12"},
			About:       "§5 gossip over lossy links: 5% per-message omission",
		},
		{
			Name: "gossip/expander/delay", Problem: Gossip, Algorithm: GossipExpander, Port: MultiPort,
			Fault:       FaultModel{Kind: DelayedLinks, Delay: 2},
			MayBreak:    []Guarantee{Completeness},
			Experiments: []string{"E12"},
			About:       "§5 gossip under adversarial delivery up to 2 rounds late",
		},
		{
			Name: "checkpoint/expander/partition", Problem: Checkpointing, Algorithm: CheckpointExpander, Port: MultiPort,
			Fault:       FaultModel{Kind: PartitionWindow, WindowStart: 1, WindowEnd: 4},
			Experiments: []string{"E12"},
			About:       "§6 checkpointing through an n/2 split for rounds [1,4), then healed",
		},
		{
			Name: "majority/expander/omission", Problem: MajorityVote, Algorithm: Majority, Port: MultiPort,
			Fault:       FaultModel{Kind: OmissionFaults, Rate: 0.03},
			Experiments: []string{"E12"},
			About:       "§9 majority tally over lossy links: 3% per-message omission",
		},
		// The chaos rows: the worst adversary schedules found by the
		// frontier campaigns of internal/campaign, committed as
		// testdata/frontier_*.json and pinned by a golden test. E13
		// sweeps these; unlike the hand-picked E12 rows above, these
		// schedules are expected to break their safety property.
		{
			Name: "consensus/few-crashes/chaos", Problem: Consensus, Algorithm: FewCrashes, Port: MultiPort,
			Fault: FaultModel{Kind: DelayedLinks, Delay: 4},
			// Late deliveries leave the survivors undecided, never split:
			// the outcome's agreement flag counts both.
			MayBreak:    []Guarantee{Termination},
			Experiments: []string{"E13"},
			About:       "campaign-found worst schedule: delivery up to 4 rounds late breaks agreement (frontier_consensus_few-crashes.json)",
		},
		{
			Name: "gossip/expander/chaos", Problem: Gossip, Algorithm: GossipExpander, Port: MultiPort,
			Fault:       FaultModel{Kind: DelayedLinks, Delay: 3},
			MayBreak:    []Guarantee{Completeness},
			Experiments: []string{"E13"},
			About:       "campaign-found worst unswept schedule: delivery up to 3 rounds late leaves gossip incomplete (frontier_gossip_expander.json)",
		},
	} {
		Register(d)
	}
}
