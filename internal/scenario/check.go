package scenario

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
)

// Guarantee names one correctness property Check verifies.
type Guarantee string

// The guarantees of the paper's problems (§2), plus the bounds every run
// must keep.
const (
	// Agreement: the deciding nodes decided one value — one bit
	// (consensus), one set (checkpointing), one value (Byzantine
	// consensus), one verdict and tally (majority voting).
	Agreement Guarantee = "agreement"
	// Validity: every decided consensus value is some node's input.
	Validity Guarantee = "validity"
	// Termination: every node that did not crash (every honest node,
	// under Byzantine faults) decided.
	Termination Guarantee = "termination"
	// Completeness: every survivor's gossip view holds every survivor's
	// rumor; the agreed checkpoint set and the agreed ballot set contain
	// every survivor.
	Completeness Guarantee = "completeness"
	// Integrity: no gossip view carries a value that is not its node's
	// rumor, and no agreed tally counts more votes than were cast.
	Integrity Guarantee = "integrity"
	// Deciders: at least 3n/5 nodes decided and survived (the §3/§4
	// subroutines' almost-everywhere guarantee).
	Deciders Guarantee = "deciders"
	// Bounds: the run ended within its round budget (the schedule plus
	// the slack), its per-part message counts sum to at most its
	// message count, and each part's count is within that part's bound
	// in the stack's part table.
	Bounds Guarantee = "bounds"
)

// Violation is one guarantee a run broke, with the evidence.
type Violation struct {
	Guarantee Guarantee
	Detail    string
}

// Check judges a finished run of sp by its report: it computes every
// verdict from the report's raw outcome fields — decisions, views, the
// agreed set or tally, the crash list — and the spec's inputs, never
// from the outcome's flags, and returns the guarantees the run broke.
// It is the one judge: Run and ExecuteBatch fill the flags from it. The
// one exception is majority voting's agreement, for which the report
// keeps no per-node evidence: its decoder's flag is read, and the
// agreed tally is checked against the inputs. A report of a spec that
// cannot run yields a Bounds violation.
func Check(sp Spec, rep *Report) []Violation {
	var vs []Violation
	add := func(g Guarantee, format string, args ...any) {
		vs = append(vs, Violation{Guarantee: g, Detail: fmt.Sprintf(format, args...)})
	}
	st, ok := stackOf(sp)
	if !ok {
		add(Bounds, "no protocol stack runs %v/%s", sp.Problem, sp.Algorithm)
		return vs
	}
	parts := partsOf(sp, st)
	if budget := parts.End() + slackOf(sp); rep.Metrics.Rounds > budget {
		add(Bounds, "%d rounds, budget %d", rep.Metrics.Rounds, budget)
	}
	var sum int64
	overbooked := false
	for name, m := range rep.Metrics.PerPart {
		sum += m
		overbooked = overbooked || m > parts.Bound(name)
	}
	if overbooked {
		// Sorted only now: a clean run pays for no name slice.
		for _, name := range slices.Sorted(maps.Keys(rep.Metrics.PerPart)) {
			if m, bound := rep.Metrics.PerPart[name], parts.Bound(name); m > bound {
				add(Bounds, "%d messages in part %q, bound %d", m, name, bound)
			}
		}
	}
	if sum > rep.Metrics.Messages {
		add(Bounds, "per-part messages sum to %d of %d", sum, rep.Metrics.Messages)
	}

	crashed := make([]bool, sp.N)
	for _, i := range rep.Crashed {
		crashed[i] = true
	}
	// A broken guarantee is reported once per run, or once per survivor
	// for gossip views, with its first witness: an incomplete gossip run
	// misses up to n² pairs.
	undecided, firstUndecided := 0, 0
	undecidedAt := func(i int) {
		if undecided == 0 {
			firstUndecided = i
		}
		undecided++
	}
	switch {
	case rep.Consensus != nil:
		ds := rep.Consensus.Decisions
		first, split, invented := -1, -1, -1
		for i, d := range ds {
			switch {
			case crashed[i]:
				continue
			case d < 0:
				undecidedAt(i)
				continue
			case first < 0:
				first = i
			case d != ds[first] && split < 0:
				split = i
			}
			if invented < 0 && !slices.Contains(sp.BoolInputs, d == 1) {
				invented = i
			}
		}
		if split >= 0 {
			add(Agreement, "survivor %d decided %d, survivor %d %d", split, ds[split], first, ds[first])
		}
		if invented >= 0 {
			add(Validity, "survivor %d decided %d, nobody's input", invented, ds[invented])
		}
	case rep.Gossip != nil:
		// Nodes with equal views may share one map, so each distinct map
		// is judged once and its verdict reported for every survivor
		// that reads it: a complete run costs one n-entry scan, not n.
		type judged struct {
			view           uintptr // the map's identity
			missing, first int     // how many survivors' rumors it lacks; the first
			bad            int     // its least key mapped to a wrong rumor, if corrupt
			corrupt        bool
		}
		var buf [4]judged
		seen := buf[:0]
		for i, view := range rep.Gossip.Extant {
			if crashed[i] {
				continue
			}
			id := reflect.ValueOf(view).Pointer()
			k := len(seen) - 1
			for k >= 0 && seen[k].view != id {
				k--
			}
			if k < 0 {
				v := judged{view: id}
				for j := range sp.N {
					if _, ok := view[j]; !ok && !crashed[j] {
						if v.missing == 0 {
							v.first = j
						}
						v.missing++
					}
				}
				for j, r := range view {
					if (j < 0 || j >= sp.N || r != sp.Rumors[j]) && (!v.corrupt || j < v.bad) {
						v.corrupt, v.bad = true, j
					}
				}
				seen = append(seen, v)
				k = len(seen) - 1
			}
			v := seen[k]
			if v.missing > 0 {
				add(Completeness, "survivor %d's view lacks %d survivors' rumors, %d's first", i, v.missing, v.first)
			}
			if v.corrupt {
				add(Integrity, "survivor %d's view maps %d to %d", i, v.bad, view[v.bad])
			}
		}
	case rep.Checkpoint != nil:
		set := rep.Checkpoint.ExtantSet
		if set == nil {
			// With no survivor, agreement holds vacuously.
			if slices.Contains(crashed, false) {
				add(Agreement, "the survivors decided no common set")
			}
			break
		}
		for i := range sp.N {
			if !crashed[i] && !slices.Contains(set, i) {
				add(Completeness, "the common set lacks survivor %d", i)
			}
		}
	case rep.Byzantine != nil:
		corrupted := make([]bool, sp.N)
		for _, i := range sp.Fault.Corrupted {
			corrupted[i] = true
		}
		ds := rep.Byzantine.Decisions
		first, split := -1, -1
		for i, decided := range rep.Byzantine.Decided {
			switch {
			case corrupted[i]:
			case !decided:
				undecidedAt(i)
			case first < 0:
				first = i
			case ds[i] != ds[first] && split < 0:
				split = i
			}
		}
		if split >= 0 {
			add(Agreement, "honest node %d decided %d, honest node %d %d", split, ds[split], first, ds[first])
		}
	case rep.Majority != nil:
		m := rep.Majority
		if !m.Agreement {
			add(Agreement, "the survivors decided different verdicts or tallies")
		}
		yes, survivors := 0, 0
		for i, vote := range sp.BoolInputs {
			if vote {
				yes++
			}
			if !crashed[i] {
				survivors++
			}
		}
		if m.YesWins != (2*m.YesVotes > m.Ballots) || m.YesVotes > yes || m.YesVotes > m.Ballots || m.Ballots > sp.N {
			add(Integrity, "verdict yes=%v from %d yes of %d ballots; %d yes votes cast by %d nodes", m.YesWins, m.YesVotes, m.Ballots, yes, sp.N)
		}
		if m.Ballots < survivors {
			add(Completeness, "%d ballots for %d survivors", m.Ballots, survivors)
		}
	case rep.Subroutine != nil:
		if d := rep.Subroutine.Deciders; tooFewDeciders(d, sp.N) {
			add(Deciders, "%d deciders of n=%d, want ≥ 3n/5", d, sp.N)
		}
	}
	if undecided > 0 {
		add(Termination, "%d nodes that had to decide did not, node %d first", undecided, firstUndecided)
	}
	return vs
}

// judge fills the outcome flags of rep, a finished run of sp, from
// Check: agreement (an undecided survivor breaks it too) and validity
// for consensus, completeness for gossip, agreement for checkpointing
// and Byzantine consensus. Majority's agreement is its decoder's, which
// Check reads. Run and ExecuteBatch judge every report they decode once.
func judge(sp Spec, rep *Report) {
	agreed, valid, complete := true, true, true
	for _, v := range Check(sp, rep) {
		switch v.Guarantee {
		case Agreement, Termination:
			agreed = false
		case Validity:
			valid = false
		case Completeness:
			complete = false
		}
	}
	switch {
	case rep.Consensus != nil:
		rep.Consensus.Agreement, rep.Consensus.Validity = agreed, valid
	case rep.Gossip != nil:
		rep.Gossip.Complete = complete
	case rep.Checkpoint != nil:
		rep.Checkpoint.Agreement = agreed
	case rep.Byzantine != nil:
		rep.Byzantine.Agreement = agreed
	}
}

// Verdict renders a judged report's outcome flags as the one line
// campaigns, sweeps and linearsim -seeds print, and reports whether the
// run broke its problem's headline guarantee: the flags judge filled
// from Check (majority's from its decoder), and the 3n/5 deciders for
// the subroutines. Checkpoint and ballot-set completeness, integrity
// and the bounds are Check's alone; they never flip a verdict.
func Verdict(rep *Report) (text string, violated bool) {
	switch {
	case rep.Consensus != nil:
		c := rep.Consensus
		return fmt.Sprintf("agreement=%v validity=%v", c.Agreement, c.Validity), !c.Agreement || !c.Validity
	case rep.Gossip != nil:
		return fmt.Sprintf("complete=%v", rep.Gossip.Complete), !rep.Gossip.Complete
	case rep.Checkpoint != nil:
		return fmt.Sprintf("agreement=%v", rep.Checkpoint.Agreement), !rep.Checkpoint.Agreement
	case rep.Byzantine != nil:
		return fmt.Sprintf("agreement=%v", rep.Byzantine.Agreement), !rep.Byzantine.Agreement
	case rep.Majority != nil:
		return fmt.Sprintf("agreement=%v", rep.Majority.Agreement), !rep.Majority.Agreement
	case rep.Subroutine != nil:
		d := rep.Subroutine.Deciders
		return fmt.Sprintf("deciders=%d all_decided=%v", d, rep.Subroutine.AllDecided), tooFewDeciders(d, rep.N)
	default:
		return "-", false
	}
}

// tooFewDeciders reports whether d deciders of n miss the subroutines'
// 3n/5.
func tooFewDeciders(d, n int) bool { return 5*d < 3*n }
