// Package lineartime is a reproduction of Chlebus, Kowalski and
// Olkowski, "Deterministic Fault-Tolerant Distributed Computing in
// Linear Time and Communication" (PODC 2023, arXiv:2305.11644): the
// paper's consensus, gossiping and checkpointing algorithms for
// synchronous complete networks with crash or authenticated-Byzantine
// faults, on expander overlay networks, in both the multi-port and the
// single-port communication model, together with the baselines the
// paper compares against and a deterministic simulator to run them.
//
// The package exposes one entry point per problem; everything is
// deterministic given the seed option. Each entry point is a thin
// adapter over internal/scenario: options become a scenario.Spec, the
// generic scenario runner materializes and executes it, and the
// unified scenario report is repackaged into the problem-specific
// report types below.
package lineartime

import (
	"fmt"
	"strings"

	"lineartime/internal/scenario"
)

// Algorithm selects the consensus implementation.
type Algorithm int

// Available consensus algorithms.
const (
	// FewCrashes is Few-Crashes-Consensus (§4.3): t < n/5,
	// O(t + log n) rounds, O(n + t log t) message bits.
	FewCrashes Algorithm = iota + 1
	// ManyCrashes is Many-Crashes-Consensus (§4.4): any t < n,
	// ≤ n + 3(1+lg n) rounds.
	ManyCrashes
	// FloodingBaseline is the Θ(n²)-message textbook comparator.
	FloodingBaseline
	// SinglePortLinear is Linear-Consensus (§8) in the single-port
	// model: O(t + log n) rounds, O(n + t log n) message bits.
	SinglePortLinear
	// EarlyStoppingBaseline is the related-work early-stopping
	// comparator: min(f+3, t+3) rounds for f actual crashes, Θ(n²)
	// messages per round.
	EarlyStoppingBaseline
	// CoordinatorBaseline is the rotating-coordinator comparator:
	// t+1 rounds, Θ(t·n) messages.
	CoordinatorBaseline
)

// scenarioName maps the algorithm to its registry scenario name; the
// String values double as the registry's algorithm segment.
func (a Algorithm) scenarioName() (string, bool) {
	switch a {
	case FewCrashes, ManyCrashes, FloodingBaseline, SinglePortLinear,
		EarlyStoppingBaseline, CoordinatorBaseline:
		return "consensus/" + a.String(), true
	default:
		return "", false
	}
}

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case FewCrashes:
		return "few-crashes"
	case ManyCrashes:
		return "many-crashes"
	case FloodingBaseline:
		return "flooding"
	case SinglePortLinear:
		return "single-port"
	case EarlyStoppingBaseline:
		return "early-stopping"
	case CoordinatorBaseline:
		return "rotating-coordinator"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// CrashEvent schedules one crash: node Node fails at round Round with
// only its first Keep messages of that round delivered (Keep < 0
// delivers all).
type CrashEvent struct {
	Node  int
	Round int
	Keep  int
}

// ByzantineStrategy selects the behaviour of corrupted nodes in
// Byzantine runs.
type ByzantineStrategy int

// Available Byzantine behaviours.
const (
	// Silence: corrupted nodes send nothing.
	Silence ByzantineStrategy = iota + 1
	// Equivocate: corrupted sources send conflicting signed values.
	Equivocate
	// Spam: corrupted nodes flood fabricated sets and inquiries.
	Spam
)

func (s ByzantineStrategy) scenarioStrategy() scenario.ByzantineStrategy {
	switch s {
	case Equivocate:
		return scenario.Equivocate
	case Spam:
		return scenario.Spam
	default:
		return scenario.Silence
	}
}

type options struct {
	seed          uint64
	algorithm     Algorithm
	crashes       []CrashEvent
	randomCrashes int
	crashHorizon  int
	singlePort    bool
	byzStrategy   ByzantineStrategy
	byzNodes      []int
	degree        int
}

// Option configures a run.
type Option func(*options)

// WithSeed fixes the seed deriving overlays, adversaries and keys.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithAlgorithm selects the consensus algorithm (default FewCrashes).
func WithAlgorithm(a Algorithm) Option { return func(o *options) { o.algorithm = a } }

// WithCrashSchedule installs an exact crash schedule.
func WithCrashSchedule(events ...CrashEvent) Option {
	return func(o *options) { o.crashes = append(o.crashes, events...) }
}

// WithRandomCrashes crashes up to f pseudo-random nodes at
// pseudo-random rounds below horizon.
func WithRandomCrashes(f, horizon int) Option {
	return func(o *options) { o.randomCrashes, o.crashHorizon = f, horizon }
}

// WithSinglePortModel runs gossip or checkpointing in the single-port
// model (§8 adaptations). For consensus use
// WithAlgorithm(SinglePortLinear) instead.
func WithSinglePortModel() Option { return func(o *options) { o.singlePort = true } }

// WithByzantine corrupts the listed nodes with the given strategy
// (Byzantine runs only).
func WithByzantine(strategy ByzantineStrategy, nodes ...int) Option {
	return func(o *options) { o.byzStrategy, o.byzNodes = strategy, nodes }
}

// WithOverlayDegree overrides the little-overlay degree (advanced).
func WithOverlayDegree(d int) Option { return func(o *options) { o.degree = d } }

func buildOptions(opts []Option) options {
	o := options{algorithm: FewCrashes, crashHorizon: 64}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// faultModel converts the crash options into the scenario fault model
// (the single adversary factory lives in internal/scenario).
func (o *options) faultModel() scenario.FaultModel {
	if len(o.crashes) > 0 {
		events := make([]scenario.CrashEvent, len(o.crashes))
		for i, e := range o.crashes {
			events[i] = scenario.CrashEvent{Node: e.Node, Round: e.Round, Keep: e.Keep}
		}
		return scenario.FaultModel{Kind: scenario.CrashSchedule, Schedule: events}
	}
	if o.randomCrashes > 0 {
		return scenario.FaultModel{
			Kind:    scenario.RandomCrashes,
			Count:   o.randomCrashes,
			Horizon: o.crashHorizon,
		}
	}
	return scenario.FaultModel{}
}

// spec materializes the registry scenario named name at size (n, t)
// with the run options applied.
func (o *options) spec(name string, n, t int) scenario.Spec {
	sp := scenario.MustLookup(name).Spec(n, t, o.seed)
	sp.Degree = o.degree
	sp.Fault = o.faultModel()
	return sp
}

// Metrics reports the paper's two performance measures for a run.
type Metrics struct {
	Rounds      int
	Messages    int64
	Bits        int64
	ByzMessages int64
	// PerPart breaks the non-faulty message count down by algorithm
	// part (e.g. "aea/flood", "scv/inquiry") when the algorithm's part
	// table names its parts (the scenario runner labels each round
	// from it); nil otherwise.
	PerPart map[string]int64
}

// apiErr rebrands scenario-layer errors with the public package
// prefix so the internal layering does not leak through the API
// surface; errors from deeper packages pass through unchanged, as
// they always have.
func apiErr(err error) error {
	if err == nil {
		return nil
	}
	if rest, ok := strings.CutPrefix(err.Error(), "scenario: "); ok {
		return fmt.Errorf("lineartime: %s", rest)
	}
	return err
}

func toMetrics(m scenario.Metrics) Metrics {
	return Metrics{
		Rounds:      m.Rounds,
		Messages:    m.Messages,
		Bits:        m.Bits,
		ByzMessages: m.ByzMessages,
		PerPart:     m.PerPart,
	}
}

// ConsensusReport is the outcome of RunConsensus.
type ConsensusReport struct {
	Algorithm Algorithm
	N, T      int
	Metrics   Metrics
	// Decisions[i] is 0 or 1, or -1 for nodes that crashed or (in
	// pathological configurations) did not decide.
	Decisions []int
	Crashed   []int
	// Agreement and Validity summarize the §2 correctness conditions
	// over the surviving nodes.
	Agreement bool
	Validity  bool
}

// RunConsensus solves binary consensus among n nodes with fault bound
// t and the given inputs.
func RunConsensus(n, t int, inputs []bool, opts ...Option) (*ConsensusReport, error) {
	if len(inputs) != n {
		return nil, fmt.Errorf("lineartime: %d inputs for n=%d", len(inputs), n)
	}
	o := buildOptions(opts)
	name, ok := o.algorithm.scenarioName()
	if !ok {
		return nil, fmt.Errorf("lineartime: unknown algorithm %v", o.algorithm)
	}
	sp := o.spec(name, n, t)
	sp.BoolInputs = inputs
	rep, err := scenario.Run(sp)
	if err != nil {
		return nil, apiErr(err)
	}
	return &ConsensusReport{
		Algorithm: o.algorithm,
		N:         n,
		T:         t,
		Metrics:   toMetrics(rep.Metrics),
		Decisions: rep.Consensus.Decisions,
		Crashed:   rep.Crashed,
		Agreement: rep.Consensus.Agreement,
		Validity:  rep.Consensus.Validity,
	}, nil
}

// GossipReport is the outcome of RunGossip.
type GossipReport struct {
	N, T    int
	Metrics Metrics
	Crashed []int
	// Extant[i] maps node names to rumors as decided by node i (nil
	// for crashed nodes). The views are read-only: nodes that decided
	// equal views may share one map.
	Extant []map[int]uint64
	// Complete reports whether every surviving node's extant set
	// contains every surviving node's rumor.
	Complete bool
}

// RunGossip solves gossiping among n nodes with fault bound t < n/5.
// rumors[i] is node i's input. If baseline is true the all-to-all
// comparator runs instead of the §5 algorithm.
func RunGossip(n, t int, rumors []uint64, baseline bool, opts ...Option) (*GossipReport, error) {
	if len(rumors) != n {
		return nil, fmt.Errorf("lineartime: %d rumors for n=%d", len(rumors), n)
	}
	o := buildOptions(opts)
	name := "gossip/expander"
	switch {
	case baseline:
		name = "gossip/all-to-all"
	case o.singlePort:
		name = "gossip/expander/single-port"
	}
	sp := o.spec(name, n, t)
	sp.Rumors = rumors
	rep, err := scenario.Run(sp)
	if err != nil {
		return nil, apiErr(err)
	}
	return &GossipReport{
		N:        n,
		T:        t,
		Metrics:  toMetrics(rep.Metrics),
		Crashed:  rep.Crashed,
		Extant:   rep.Gossip.Extant,
		Complete: rep.Gossip.Complete,
	}, nil
}

// CheckpointReport is the outcome of RunCheckpointing.
type CheckpointReport struct {
	N, T    int
	Metrics Metrics
	Crashed []int
	// ExtantSet is the agreed set of node names (nil when agreement
	// failed, which the Agreement flag records).
	ExtantSet []int
	Agreement bool
	// Baseline reports whether the O(tn) comparator was used.
	Baseline bool
}

// RunCheckpointing solves checkpointing among n nodes with fault bound
// t < n/5. If baseline is true the direct O(tn)-message comparator
// runs instead of the §6 algorithm.
func RunCheckpointing(n, t int, baseline bool, opts ...Option) (*CheckpointReport, error) {
	o := buildOptions(opts)
	name := "checkpoint/expander"
	switch {
	case baseline:
		name = "checkpoint/direct"
	case o.singlePort:
		name = "checkpoint/expander/single-port"
	}
	sp := o.spec(name, n, t)
	rep, err := scenario.Run(sp)
	if err != nil {
		return nil, apiErr(err)
	}
	return &CheckpointReport{
		N:         n,
		T:         t,
		Metrics:   toMetrics(rep.Metrics),
		Crashed:   rep.Crashed,
		ExtantSet: rep.Checkpoint.ExtantSet,
		Agreement: rep.Checkpoint.Agreement,
		Baseline:  baseline,
	}, nil
}

// ByzantineReport is the outcome of RunByzantineConsensus.
type ByzantineReport struct {
	N, T    int
	L       int
	Metrics Metrics
	// Decisions[i] holds honest node i's decision; corrupted nodes
	// have ok=false entries.
	Decisions []uint64
	Decided   []bool
	Corrupted []int
	Agreement bool
	// Baseline reports whether all-nodes Dolev–Strong was used.
	Baseline bool
}

// RunByzantineConsensus solves authenticated-Byzantine consensus among
// n nodes with fault bound t < n/2. Corrupted nodes and their strategy
// come from WithByzantine. If baseline is true the all-nodes
// Dolev–Strong comparator runs instead of AB-Consensus.
func RunByzantineConsensus(n, t int, inputs []uint64, baseline bool, opts ...Option) (*ByzantineReport, error) {
	if len(inputs) != n {
		return nil, fmt.Errorf("lineartime: %d inputs for n=%d", len(inputs), n)
	}
	o := buildOptions(opts)
	name := "byzantine/ab-consensus"
	if baseline {
		name = "byzantine/dolev-strong-all"
	}
	sp := o.spec(name, n, t)
	sp.Values = inputs
	sp.Fault = scenario.FaultModel{
		Kind:      scenario.ByzantineFaults,
		Strategy:  o.byzStrategy.scenarioStrategy(),
		Corrupted: o.byzNodes,
	}
	rep, err := scenario.Run(sp)
	if err != nil {
		return nil, apiErr(err)
	}
	return &ByzantineReport{
		N:         n,
		T:         t,
		L:         rep.Byzantine.L,
		Metrics:   toMetrics(rep.Metrics),
		Decisions: rep.Byzantine.Decisions,
		Decided:   rep.Byzantine.Decided,
		Corrupted: append([]int(nil), o.byzNodes...),
		Agreement: rep.Byzantine.Agreement,
		Baseline:  baseline,
	}, nil
}
