// Package crash provides the adversary strategies used to exercise the
// fault-tolerance of the algorithms. The paper's adversary (§2) knows
// the algorithm, picks which ≤ t nodes crash and when, and may cut a
// crashing node's final multicast short so only a chosen subset of its
// last messages is delivered. Each strategy here is deterministic
// given its seed, so every experiment is reproducible.
package crash

import (
	"cmp"
	"math"
	"slices"

	"lineartime/internal/rng"
	"lineartime/internal/sim"
)

// Event schedules one crash: the node fails at Round and only the
// first Keep of its outgoing messages that round are delivered
// (Keep < 0 keeps all of them — "crash after send").
type Event struct {
	Node  sim.NodeID
	Round int
	Keep  int
}

// Schedule is a fixed crash schedule, the most direct rendering of the
// paper's existential adversary: tests construct the exact pattern a
// proof reasons about.
type Schedule struct {
	// byNode[id] is node id's one crash (nodes are de-duplicated, so a
	// per-node table is exact); round == never marks a node that is
	// not scheduled.
	byNode []nodeCrash
	// events is the declarative form, sorted by (round, node), built
	// once so CrashEvents costs the engines nothing per run.
	events []sim.CrashEvent
}

type nodeCrash struct{ round, keep int }

const never = math.MinInt

// NewSchedule builds a schedule from events. Multiple events may share
// a round; duplicate nodes are allowed and ignored after the first.
// Events naming a negative node can never fire and are dropped.
func NewSchedule(events []Event) *Schedule {
	size := 0
	for _, e := range events {
		size = max(size, e.Node+1)
	}
	s := &Schedule{byNode: make([]nodeCrash, size)}
	for i := range s.byNode {
		s.byNode[i].round = never
	}
	for _, e := range events {
		if e.Node < 0 || s.byNode[e.Node].round != never {
			continue
		}
		s.byNode[e.Node] = nodeCrash{round: e.Round, keep: e.Keep}
		if s.events == nil {
			s.events = make([]sim.CrashEvent, 0, len(events)) // one allocation, none while appending
		}
		s.events = append(s.events, sim.CrashEvent{Node: e.Node, Round: e.Round, Keep: e.Keep})
	}
	slices.SortFunc(s.events, func(a, b sim.CrashEvent) int {
		return cmp.Or(cmp.Compare(a.Round, b.Round), cmp.Compare(a.Node, b.Node))
	})
	return s
}

// FilterSend implements sim.LinkFault.
func (s *Schedule) FilterSend(round int, from sim.NodeID, outbox []sim.Envelope) ([]sim.Envelope, bool) {
	if uint(from) >= uint(len(s.byNode)) || s.byNode[from].round != round {
		return outbox, false
	}
	if keep := s.byNode[from].keep; keep >= 0 && keep < len(outbox) {
		return outbox[:keep], true
	}
	return outbox, true
}

// CrashEvents implements sim.CrashPlan: the schedule is its own
// declarative form. Events are returned sorted by (round, node); the
// slice is shared across calls and must not be modified.
func (s *Schedule) CrashEvents() []sim.CrashEvent { return s.events }

var _ sim.LinkFault = (*Schedule)(nil)
var _ sim.CrashPlan = (*Schedule)(nil)

// Random crashes up to t distinct nodes at pseudo-random rounds within
// [0, horizon), each keeping a pseudo-random prefix of its final
// outbox. It is the workload for the randomized safety sweeps.
type Random struct {
	schedule *Schedule
}

// NewRandom constructs a random adversary for n nodes, at most t
// crashes, crash rounds below horizon.
func NewRandom(n, t, horizon int, seed uint64) *Random {
	r := rng.New(seed)
	if t > n {
		t = n
	}
	perm := r.Perm(n)
	events := make([]Event, 0, t)
	for i := 0; i < t; i++ {
		keep := -1
		if r.Intn(2) == 0 {
			keep = r.Intn(8)
		}
		events = append(events, Event{
			Node:  perm[i],
			Round: r.Intn(horizon),
			Keep:  keep,
		})
	}
	return &Random{schedule: NewSchedule(events)}
}

// FilterSend implements sim.LinkFault.
func (a *Random) FilterSend(round int, from sim.NodeID, outbox []sim.Envelope) ([]sim.Envelope, bool) {
	return a.schedule.FilterSend(round, from, outbox)
}

// CrashEvents implements sim.CrashPlan.
func (a *Random) CrashEvents() []sim.CrashEvent { return a.schedule.CrashEvents() }

var _ sim.LinkFault = (*Random)(nil)
var _ sim.CrashPlan = (*Random)(nil)

// Cascade crashes one chosen node per round starting at round 0, the
// classic worst case that forces early-stopping consensus to run for
// f+2 rounds: each crash is timed to invalidate the previous round's
// progress. Victims are chosen deterministically from the seed,
// restricted to the first `pool` node names (use pool = 5t to target
// the little nodes, pool = n for everyone).
type Cascade struct {
	victims []sim.NodeID
	keep    int
	// events is the declarative form, built once (see CrashEvents).
	events []sim.CrashEvent
}

// NewCascade schedules t crashes, one per round, drawn from the first
// pool node names. keep is the number of final-outbox messages each
// crashing node still delivers (the proofs use small values like 1 to
// leak information to exactly one neighbor).
func NewCascade(pool, t, keep int, seed uint64) *Cascade {
	r := rng.New(seed)
	if t > pool {
		t = pool
	}
	perm := r.Perm(pool)
	a := &Cascade{victims: perm[:t], keep: keep, events: make([]sim.CrashEvent, 0, t)}
	for round, v := range a.victims {
		a.events = append(a.events, sim.CrashEvent{Node: v, Round: round, Keep: keep})
	}
	return a
}

// FilterSend implements sim.LinkFault.
func (a *Cascade) FilterSend(round int, from sim.NodeID, outbox []sim.Envelope) ([]sim.Envelope, bool) {
	if round < len(a.victims) && a.victims[round] == from {
		if a.keep < 0 || a.keep >= len(outbox) {
			return outbox, true
		}
		return outbox[:a.keep], true
	}
	return outbox, false
}

// CrashEvents implements sim.CrashPlan: victim i crashes at round i
// with the cascade's keep prefix. The slice is shared across calls and
// must not be modified.
func (a *Cascade) CrashEvents() []sim.CrashEvent { return a.events }

var _ sim.LinkFault = (*Cascade)(nil)
var _ sim.CrashPlan = (*Cascade)(nil)

// TargetLittle crashes t of the 5t little nodes at round 0 before they
// send anything, the direct attack on the survival-set machinery of
// Theorem 2: the adversary spends its whole budget shrinking the
// little-node overlay.
type TargetLittle struct {
	victims map[sim.NodeID]bool
	// events is the declarative form, sorted by node and built once
	// (see CrashEvents).
	events []sim.CrashEvent
}

// NewTargetLittle picks t victims among the first little node names.
func NewTargetLittle(little, t int, seed uint64) *TargetLittle {
	r := rng.New(seed)
	if t > little {
		t = little
	}
	perm := r.Perm(little)
	nodes := perm[:t]
	victims := make(map[sim.NodeID]bool, t)
	for _, v := range nodes {
		victims[v] = true
	}
	slices.Sort(nodes)
	events := make([]sim.CrashEvent, 0, t)
	for _, v := range nodes {
		events = append(events, sim.CrashEvent{Node: v, Round: 0, Keep: 0})
	}
	return &TargetLittle{victims: victims, events: events}
}

// FilterSend implements sim.LinkFault.
func (a *TargetLittle) FilterSend(round int, from sim.NodeID, outbox []sim.Envelope) ([]sim.Envelope, bool) {
	if round == 0 && a.victims[from] {
		return nil, true
	}
	return outbox, false
}

// CrashEvents implements sim.CrashPlan: every victim crashes at round 0
// before sending anything (Keep 0), in node order. The slice is shared
// across calls and must not be modified.
func (a *TargetLittle) CrashEvents() []sim.CrashEvent { return a.events }

var _ sim.LinkFault = (*TargetLittle)(nil)
var _ sim.CrashPlan = (*TargetLittle)(nil)

// Isolate cuts one chosen node off from the world, up to a budget of t
// — the adversary of the Ω(t) single-port lower bound (Theorem 13).
// Starting at round 0, a node that sends to the victim is crashed at
// that send step, its whole outbox dropped. The victim's own messages
// are dropped too, one unit of budget each, but their recipients are
// not crashed: they stay alive and never appear among the crashed
// nodes, so the victim's side is an omission of a live node's messages,
// not a legal crash adversary (ROADMAP.md's "Theorem 13 against the
// real §8 stacks" item sets out the legal version). The victim itself
// is never crashed.
type Isolate struct {
	victim  sim.NodeID
	budget  int
	crashed map[sim.NodeID]bool
}

// NewIsolate builds the isolation adversary around victim with budget t.
func NewIsolate(victim sim.NodeID, t int) *Isolate {
	return &Isolate{victim: victim, budget: t, crashed: make(map[sim.NodeID]bool)}
}

// FilterSend implements sim.LinkFault. A sender with a message for the
// victim is crashed before anything it sends is delivered, once per
// sender while budget remains. The victim's outbox is cut from the
// front, one envelope per remaining unit of budget; its recipients are
// not crashed.
func (a *Isolate) FilterSend(round int, from sim.NodeID, outbox []sim.Envelope) ([]sim.Envelope, bool) {
	if from == a.victim {
		// The victim's messages vanish while budget remains. Crashing
		// the victim is forbidden, and its recipients are left alive:
		// each dropped envelope is charged to the budget as if its
		// recipient had been crashed.
		drop := 0
		for range outbox {
			if a.budget > 0 {
				a.budget--
				drop++
			}
		}
		return outbox[drop:], false
	}
	for _, env := range outbox {
		if env.To == a.victim && a.budget > 0 && !a.crashed[from] {
			a.budget--
			a.crashed[from] = true
			return nil, true
		}
	}
	return outbox, false
}

var _ sim.LinkFault = (*Isolate)(nil)
