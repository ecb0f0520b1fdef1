// Package campaign is the chaos-campaign controller: a budgeted,
// deterministic search over the fault-parameter space of a registry
// scenario for the adversary schedules that hurt the most — maximize
// rounds and bits, or break the scenario's correctness guarantee
// outright (agreement, completeness, termination).
//
// The search runs in the reconcile/requeue idiom: a work queue of
// candidate fault models is seeded with a coarse grid over every fault
// kind under search (omission rate, partition window/cut, delay bound,
// crash schedules), each candidate is reconciled into a scored Result
// by one engine run, and when the queue drains the controller re-queues
// greedily-refined neighbors of the current worst offenders — up to a
// wave cap, a total-sim budget, and an optional wall-clock budget.
// Every candidate is seeded and deterministic, keyed by its
// scenario.Spec.Key() content address (so a serving-layer cache
// deduplicates revisits across campaigns), and the whole exploration is
// a pure function of the campaign Spec: re-running a campaign produces
// a byte-identical frontier artifact, and a checkpoint taken at any
// batch boundary resumes to the same final artifact.
//
// The output is a "robustness frontier" artifact (Frontier): the top-K
// worst adversary schedules found, with their outcomes — a committed,
// versioned record of where the protocol breaks. internal/serve hosts
// campaigns as resumable async jobs; cmd/campaign drives them locally
// or remotely.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"lineartime/internal/scenario"
)

// The artifact and checkpoint schema identifiers, versioned so the
// formats can evolve without old files being misread.
const (
	FrontierSchema   = "lineartime/frontier/v1"
	CheckpointSchema = "lineartime/campaign-checkpoint/v1"
)

// The fault-space axes a campaign can search, in canonical order.
const (
	KindOmission  = "omission"
	KindPartition = "partition"
	KindDelay     = "delay"
	KindCrash     = "crash"
)

// allKinds is the canonical axis order; Spec.Kinds is normalized
// against it so two spellings of the same axis set produce the same
// campaign (and the same ID).
var allKinds = []string{KindOmission, KindPartition, KindDelay, KindCrash}

// Budget bounds a campaign. MaxSims is the hard evaluation budget;
// MaxWaves caps the greedy refinement generations after the initial
// grid; TopK sizes both the frontier and the per-wave refinement fan.
// MaxWallClockMS, when positive, is a safety valve checked at batch
// boundaries — a campaign cut by wall clock is marked Truncated in its
// artifact, because unlike the sim budget the cut point is not
// deterministic.
type Budget struct {
	MaxSims        int `json:"max_sims"`
	MaxWaves       int `json:"max_waves,omitempty"`
	TopK           int `json:"top_k,omitempty"`
	MaxWallClockMS int `json:"max_wall_clock_ms,omitempty"`
}

// Spec identifies one campaign: the scenario cell to attack, the run
// seed every evaluation shares, the axes to search, and the budget.
// A campaign is a pure function of its (normalized) Spec.
type Spec struct {
	Scenario string   `json:"scenario"`
	N        int      `json:"n"`
	T        int      `json:"t"`
	Seed     uint64   `json:"seed"`
	Kinds    []string `json:"kinds,omitempty"`
	Budget   Budget   `json:"budget"`
}

// Normalize fills defaults and canonicalizes the axis list. It returns
// the normalized copy; the receiver is unchanged.
func (s Spec) Normalize() (Spec, error) {
	if s.Scenario == "" {
		return s, fmt.Errorf("lineartime: campaign needs a scenario")
	}
	if _, ok := scenario.Lookup(s.Scenario); !ok {
		return s, fmt.Errorf("lineartime: unknown scenario %q (see /v1/scenarios)", s.Scenario)
	}
	if s.N <= 0 {
		return s, fmt.Errorf("lineartime: campaign n=%d must be positive", s.N)
	}
	if s.T < 0 {
		return s, fmt.Errorf("lineartime: campaign t=%d must be non-negative", s.T)
	}
	if s.Budget.MaxSims <= 0 {
		return s, fmt.Errorf("lineartime: campaign budget max_sims=%d must be positive", s.Budget.MaxSims)
	}
	if s.Budget.MaxWaves <= 0 {
		s.Budget.MaxWaves = 4
	}
	if s.Budget.TopK <= 0 {
		s.Budget.TopK = 4
	}
	if len(s.Kinds) == 0 {
		s.Kinds = slices.Clone(allKinds)
	} else {
		want := make(map[string]bool, len(s.Kinds))
		for _, k := range s.Kinds {
			if !slices.Contains(allKinds, k) {
				return s, fmt.Errorf("lineartime: unknown campaign fault axis %q (have %v)", k, allKinds)
			}
			want[k] = true
		}
		kinds := make([]string, 0, len(want))
		for _, k := range allKinds {
			if want[k] {
				kinds = append(kinds, k)
			}
		}
		s.Kinds = kinds
	}
	return s, nil
}

// ID is the campaign's content address: a stable fingerprint of the
// normalized Spec. Two POSTs of the same campaign share one job, the
// way two runs of the same scenario Spec share one cache entry.
func (s Spec) ID() string {
	norm, err := s.Normalize()
	if err != nil {
		norm = s
	}
	blob, _ := json.Marshal(norm)
	sum := sha256.Sum256(blob)
	return "cmp-" + hex.EncodeToString(sum[:])[:16]
}

// Candidate is one queued point of the fault space: a fault model in
// its canonical CLI spelling, the refinement level that produced it
// (0 = the initial grid), and the content address of the scenario Spec
// it materializes into.
type Candidate struct {
	Fault string `json:"fault"`
	Level int    `json:"level"`
	Key   string `json:"key"`

	// fm is the parsed model; rebuilt from Fault on checkpoint resume.
	fm scenario.FaultModel
}

// The Result outcomes, from worst to best. A "violated" run broke the
// scenario's safety guarantee (agreement, completeness, tally); a
// "no-termination" run broke liveness (some correct node never halted
// within the round budget); an "ok" run survived with the recorded
// cost; an "error" candidate could not be evaluated (it still consumed
// budget, so the search stays deterministic).
const (
	OutcomeViolated      = "violated"
	OutcomeNoTermination = "no-termination"
	OutcomeOK            = "ok"
	OutcomeError         = "error"
)

// severity ranks outcomes for the frontier ordering.
func severity(outcome string) int {
	switch outcome {
	case OutcomeViolated:
		return 3
	case OutcomeNoTermination:
		return 2
	case OutcomeOK:
		return 1
	default:
		return 0
	}
}

// Result is one reconciled candidate: the fault model, its content
// address, and what it did to the protocol.
type Result struct {
	Fault    string `json:"fault"`
	Key      string `json:"key"`
	Level    int    `json:"level"`
	Outcome  string `json:"outcome"`
	Verdict  string `json:"verdict"`
	Rounds   int    `json:"rounds"`
	Messages int64  `json:"messages"`
	Bits     int64  `json:"bits"`
}

// worse is the frontier order: strongest offender first. Severity
// dominates (a violation beats any slowdown), then rounds, bits and
// messages descending, with the content address as the deterministic
// tie-break.
func worse(a, b Result) bool {
	if sa, sb := severity(a.Outcome), severity(b.Outcome); sa != sb {
		return sa > sb
	}
	if a.Rounds != b.Rounds {
		return a.Rounds > b.Rounds
	}
	if a.Bits != b.Bits {
		return a.Bits > b.Bits
	}
	if a.Messages != b.Messages {
		return a.Messages > b.Messages
	}
	return a.Key < b.Key
}

// Frontier is the campaign's artifact: the robustness frontier of the
// scenario under the searched fault space. It is deterministic for a
// fixed Spec — no timestamps, no machine state — so committed
// artifacts are byte-stable and a resumed campaign converges to the
// same bytes.
type Frontier struct {
	Schema     string `json:"schema"`
	Campaign   Spec   `json:"campaign"`
	Sims       int    `json:"sims"`
	Waves      int    `json:"waves"`
	Evaluated  int    `json:"evaluated"`
	Violations int    `json:"violations"`
	// Truncated names the non-deterministic budget that cut the search
	// ("wall-clock"), empty for a deterministic completion.
	Truncated string   `json:"truncated,omitempty"`
	Frontier  []Result `json:"frontier"`
}

// Encode renders the artifact in its committed form: two-space
// indented JSON with a trailing newline.
func (f *Frontier) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ValidateFrontier checks an encoded artifact against the frontier
// schema: version, campaign shape, internal consistency (sims within
// budget, frontier within top-K and correctly ordered, every fault in
// parseable canonical spelling, every key a spec content address).
// The CI campaign-smoke job and cmd/campaign -validate call this.
func ValidateFrontier(data []byte) error {
	var f Frontier
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("frontier artifact is not valid JSON: %w", err)
	}
	if f.Schema != FrontierSchema {
		return fmt.Errorf("frontier schema %q, want %q", f.Schema, FrontierSchema)
	}
	norm, err := f.Campaign.Normalize()
	if err != nil {
		return fmt.Errorf("frontier campaign spec invalid: %w", err)
	}
	if f.Sims > norm.Budget.MaxSims {
		return fmt.Errorf("frontier used %d sims, over its budget of %d", f.Sims, norm.Budget.MaxSims)
	}
	if len(f.Frontier) > norm.Budget.TopK {
		return fmt.Errorf("frontier holds %d entries, over top_k=%d", len(f.Frontier), norm.Budget.TopK)
	}
	if f.Evaluated > f.Sims {
		return fmt.Errorf("frontier evaluated %d candidates with only %d sims", f.Evaluated, f.Sims)
	}
	for i, r := range f.Frontier {
		if severity(r.Outcome) == 0 && r.Outcome != OutcomeError {
			return fmt.Errorf("frontier[%d] has unknown outcome %q", i, r.Outcome)
		}
		fm, err := scenario.ParseFault(r.Fault)
		if err != nil {
			return fmt.Errorf("frontier[%d] fault %q does not parse: %w", i, r.Fault, err)
		}
		if cli := fm.CLI(); cli != r.Fault {
			return fmt.Errorf("frontier[%d] fault %q is not canonical (want %q)", i, r.Fault, cli)
		}
		if len(r.Key) < 4 || r.Key[:3] != "k1:" {
			return fmt.Errorf("frontier[%d] key %q is not a spec content address", i, r.Key)
		}
		if i > 0 && worse(r, f.Frontier[i-1]) {
			return fmt.Errorf("frontier out of order at entry %d", i)
		}
	}
	return nil
}

// ranked returns the results sorted strongest-offender-first.
func ranked(results []Result) []Result {
	out := slices.Clone(results)
	sort.Slice(out, func(i, j int) bool { return worse(out[i], out[j]) })
	return out
}
