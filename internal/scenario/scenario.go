// Package scenario is the declarative layer between the public API /
// commands and the simulator: a Scenario is one cell of the paper's
// evaluation matrix — problem × algorithm × fault model × port model ×
// topology × size — expressed as a typed Spec, and a single generic
// Run materializes any Spec into a sim.Config, dispatches it through
// the one engine choke point (Execute), and returns a unified Report.
//
// The package also keeps a registry of named scenario definitions
// (registry.go) covering every protocol stack the paper evaluates, so
// the commands enumerate scenarios instead of hand-wiring each cell:
// cmd/linearsim resolves its flags to a registry name, and the
// experiment tables of cmd/sweep (Table 1 among them) are built from
// the registry by the scenario/experiments subpackage. Adding a workload
// means adding a registry entry (plus, for a new experiment table, one
// experiments definition) — not editing three commands.
//
// Layering: scenario sits above internal/sim and the protocol packages
// (consensus, gossip, checkpoint, byzantine, singleport, crash) and
// below the root API and cmd/. Everything outside internal/sim that
// needs an engine run goes through Execute, which is the only caller of
// sim.Runtime.Run in the repository.
package scenario

import (
	"lineartime/internal/obs"
	"lineartime/internal/sim"
)

// Problem identifies which of the paper's problems a scenario solves.
// AlmostEverywhere and SpreadCommonValue are the §3/§4 subroutines,
// exposed as scenarios because the paper evaluates them standalone
// (experiments E2 and E3).
type Problem int

// The paper's problems.
const (
	Consensus Problem = iota + 1
	Gossip
	Checkpointing
	ByzantineConsensus
	AlmostEverywhere
	SpreadCommonValue
	MajorityVote
)

// String implements fmt.Stringer.
func (p Problem) String() string {
	switch p {
	case Consensus:
		return "consensus"
	case Gossip:
		return "gossip"
	case Checkpointing:
		return "checkpoint"
	case ByzantineConsensus:
		return "byzantine"
	case AlmostEverywhere:
		return "aea"
	case SpreadCommonValue:
		return "scv"
	case MajorityVote:
		return "majority"
	default:
		return "unknown"
	}
}

// Algorithm names the per-problem algorithm or baseline. The values
// match the CLI spellings of cmd/linearsim.
type Algorithm string

// The algorithms and baselines of the paper's evaluation matrix.
const (
	// Consensus (crash faults).
	FewCrashes          Algorithm = "few-crashes"          // §4.3
	ManyCrashes         Algorithm = "many-crashes"         // §4.4
	Flooding            Algorithm = "flooding"             // Θ(n²) comparator
	SinglePortLinear    Algorithm = "single-port"          // §8 Linear-Consensus
	EarlyStopping       Algorithm = "early-stopping"       // min(f+3,t+3) comparator
	RotatingCoordinator Algorithm = "rotating-coordinator" // t+1-round comparator
	// Gossip.
	GossipExpander Algorithm = "gossip"            // §5
	GossipAllToAll Algorithm = "gossip-all-to-all" // Θ(n²) comparator
	// Checkpointing.
	CheckpointExpander Algorithm = "checkpoint"        // §6
	CheckpointDirect   Algorithm = "checkpoint-direct" // O(tn) comparator
	// Authenticated-Byzantine consensus.
	ABConsensus    Algorithm = "ab-consensus"     // §7
	DolevStrongAll Algorithm = "dolev-strong-all" // all-nodes comparator
	// Subroutines (§3, §4).
	AEA Algorithm = "aea"
	SCV Algorithm = "scv"
	// Majority voting (§9 extension).
	Majority Algorithm = "majority"
)

// PortModel selects the communication model of §2.
type PortModel int

// The two port models.
const (
	// MultiPort: a node may send to and receive from any set of nodes
	// in one round.
	MultiPort PortModel = iota
	// SinglePort: at most one send and one poll per node per round.
	SinglePort
)

// String implements fmt.Stringer.
func (p PortModel) String() string {
	if p == SinglePort {
		return "single-port"
	}
	return "multi-port"
}

// ByzantineStrategy selects the behaviour of corrupted nodes.
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

// String implements fmt.Stringer.
func (s ByzantineStrategy) String() string {
	switch s {
	case Silence:
		return "silence"
	case Equivocate:
		return "equivocate"
	case Spam:
		return "spam"
	default:
		return "unknown"
	}
}

// Spec is one fully materializable scenario: a cell of the evaluation
// matrix at a concrete size, with concrete inputs and fault model.
// Definitions in the registry produce canonical Specs via
// Definition.Spec; callers adjust fields before handing the Spec to
// Run.
type Spec struct {
	// Name is the registry name that produced the spec (informational;
	// copied into the Report).
	Name      string
	Problem   Problem
	Algorithm Algorithm
	Port      PortModel

	// N is the number of nodes, T the fault bound.
	N, T int
	// Seed derives overlays, adversaries and keys.
	Seed uint64
	// Degree overrides the little-overlay degree (0 = default).
	Degree int
	// RoundSlack is added to the protocol schedule length to form
	// sim.Config.MaxRounds (≤ 0 = the default of 8; Run rejects more
	// than 1024).
	RoundSlack int

	// Fault is the scenario's fault model (zero value = no failures).
	Fault FaultModel

	// BoolInputs are the per-node inputs of consensus, AEA (input
	// bit), SCV (has-value flag) and majority voting (the vote).
	// Length N when set.
	BoolInputs []bool
	// Rumors are the per-node gossip inputs. Length N when set.
	Rumors []uint64
	// Values are the per-node Byzantine-consensus inputs. Length N
	// when set.
	Values []uint64

	// Tracer optionally receives stage-level timings (materialize,
	// setup, rounds, decode, merge) and the run outcome; it works on
	// both engines. Runtime-only: excluded from Key, so traced and
	// untraced runs of the same scenario share a cache identity.
	Tracer obs.RunTracer
	// Observer optionally receives per-message engine events (see
	// sim.Observer). Runtime-only: excluded from Key like Tracer.
	Observer sim.Observer
}

// Metrics is the unified performance envelope of a run: the paper's
// two measures plus the Byzantine split and the per-part breakdown.
// The JSON form is the wire encoding of the serving layer and of
// linearsim -json.
type Metrics struct {
	Rounds      int              `json:"rounds"`
	Messages    int64            `json:"messages"`
	Bits        int64            `json:"bits"`
	ByzMessages int64            `json:"byz_messages,omitempty"`
	ByzBits     int64            `json:"byz_bits,omitempty"`
	PerPart     map[string]int64 `json:"per_part,omitempty"`
}

// Report is the unified outcome envelope of a run. Exactly one of the
// problem-specific sections is non-nil, matching Spec.Problem. The
// JSON form is the wire encoding of the serving layer and of
// linearsim -json.
type Report struct {
	Scenario  string    `json:"scenario"`
	Problem   Problem   `json:"problem"`
	Algorithm Algorithm `json:"algorithm"`
	Port      PortModel `json:"port"`
	N         int       `json:"n"`
	T         int       `json:"t"`
	Metrics   Metrics   `json:"metrics"`
	// Crashed lists the nodes the adversary crashed.
	Crashed []int `json:"crashed,omitempty"`

	Consensus  *ConsensusOutcome  `json:"consensus,omitempty"`
	Gossip     *GossipOutcome     `json:"gossip,omitempty"`
	Checkpoint *CheckpointOutcome `json:"checkpoint,omitempty"`
	Byzantine  *ByzantineOutcome  `json:"byzantine,omitempty"`
	Subroutine *SubroutineOutcome `json:"subroutine,omitempty"`
	Majority   *MajorityOutcome   `json:"majority,omitempty"`
}

// ConsensusOutcome summarizes a consensus run against the §2
// correctness conditions.
type ConsensusOutcome struct {
	// Decisions[i] is 0 or 1, or -1 for nodes that crashed or did not
	// decide.
	Decisions []int `json:"decisions"`
	// Agreement and Validity are Check's: every survivor decided, on
	// one value, and every decided value is some node's input.
	Agreement bool `json:"agreement"`
	Validity  bool `json:"validity"`
}

// GossipOutcome summarizes a gossip run.
type GossipOutcome struct {
	// Extant[i] maps node names to rumors as decided by node i (nil
	// for crashed nodes). The views are read-only: nodes that decided
	// equal views may share one map.
	Extant []map[int]uint64 `json:"extant"`
	// Complete is Check's: every surviving node's extant set contains
	// every surviving node's rumor.
	Complete bool `json:"complete"`
}

// CheckpointOutcome summarizes a checkpointing run.
type CheckpointOutcome struct {
	// ExtantSet is the agreed set of node names, nil unless every
	// survivor decided one set.
	ExtantSet []int `json:"extant_set"`
	// Agreement is Check's: the agreed set is present, or nobody
	// survived.
	Agreement bool `json:"agreement"`
}

// ByzantineOutcome summarizes an authenticated-Byzantine consensus
// run.
type ByzantineOutcome struct {
	// L is the little-committee size of the §7 construction.
	L int `json:"l"`
	// Decisions[i] holds honest node i's decision; corrupted nodes
	// have Decided[i] = false.
	Decisions []uint64 `json:"decisions"`
	Decided   []bool   `json:"decided"`
	// Agreement is Check's: every honest node decided, on one value.
	Agreement bool `json:"agreement"`
}

// SubroutineOutcome summarizes an AEA or SCV run.
type SubroutineOutcome struct {
	// Deciders counts the non-crashed nodes that decided.
	Deciders int `json:"deciders"`
	// AllDecided reports whether every node (crashed or not) decided.
	AllDecided bool `json:"all_decided"`
}

// MajorityOutcome summarizes a §9 majority-vote run.
type MajorityOutcome struct {
	// YesWins is the agreed verdict; YesVotes/Ballots the agreed
	// tally.
	YesWins  bool `json:"yes_wins"`
	YesVotes int  `json:"yes_votes"`
	Ballots  int  `json:"ballots"`
	// Agreement is the decoder's, the one flag Check reads: all
	// surviving nodes reached the same verdict and tally.
	Agreement bool `json:"agreement"`
}
