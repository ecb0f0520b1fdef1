package crash

import (
	"reflect"
	"sort"
	"testing"

	"lineartime/internal/rng"
	"lineartime/internal/sim"
)

func envs(from, k int) []sim.Envelope {
	out := make([]sim.Envelope, k)
	for i := range out {
		out[i] = sim.Envelope{From: from, To: (from + i + 1) % 100, Payload: sim.Bit(true)}
	}
	return out
}

func TestScheduleCrashAndKeep(t *testing.T) {
	s := NewSchedule([]Event{
		{Node: 3, Round: 2, Keep: 1},
		{Node: 4, Round: 2, Keep: -1},
	})
	if len(s.events) != 2 {
		t.Fatalf("Total = %d, want 2", len(s.events))
	}

	out, crash := s.FilterSend(2, 3, envs(3, 5))
	if !crash || len(out) != 1 {
		t.Fatalf("node 3: crash=%v len=%d, want true/1", crash, len(out))
	}
	out, crash = s.FilterSend(2, 4, envs(4, 5))
	if !crash || len(out) != 5 {
		t.Fatalf("node 4: crash=%v len=%d, want true/5 (keep all)", crash, len(out))
	}
	out, crash = s.FilterSend(1, 3, envs(3, 5))
	if crash || len(out) != 5 {
		t.Fatal("node 3 crashed in wrong round")
	}
	_, crash = s.FilterSend(2, 9, envs(9, 2))
	if crash {
		t.Fatal("unscheduled node crashed")
	}
}

func TestScheduleDeduplicates(t *testing.T) {
	s := NewSchedule([]Event{
		{Node: 1, Round: 0},
		{Node: 1, Round: 5},
	})
	if len(s.events) != 1 {
		t.Fatalf("Total = %d, want 1 after dedup", len(s.events))
	}
}

func TestRandomBudget(t *testing.T) {
	a := NewRandom(50, 10, 20, 1)
	crashes := 0
	for r := 0; r < 20; r++ {
		for id := 0; id < 50; id++ {
			if _, crash := a.FilterSend(r, id, envs(id, 3)); crash {
				crashes++
			}
		}
	}
	if crashes > 10 {
		t.Fatalf("random adversary crashed %d > 10 nodes", crashes)
	}
	if crashes == 0 {
		t.Fatal("random adversary crashed nobody")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, b := NewRandom(30, 8, 10, 7), NewRandom(30, 8, 10, 7)
	for r := 0; r < 10; r++ {
		for id := 0; id < 30; id++ {
			oa, ca := a.FilterSend(r, id, envs(id, 4))
			ob, cb := b.FilterSend(r, id, envs(id, 4))
			if ca != cb || len(oa) != len(ob) {
				t.Fatalf("random adversaries with equal seeds diverged at r=%d id=%d", r, id)
			}
		}
	}
}

func TestCascadeOnePerRound(t *testing.T) {
	a := NewCascade(20, 5, 1, 3)
	perRound := make(map[int]int)
	total := 0
	for r := 0; r < 10; r++ {
		for id := 0; id < 20; id++ {
			if out, crash := a.FilterSend(r, id, envs(id, 4)); crash {
				perRound[r]++
				total++
				if len(out) != 1 {
					t.Fatalf("cascade keep=1 delivered %d", len(out))
				}
			}
		}
	}
	if total != 5 {
		t.Fatalf("cascade crashed %d nodes, want 5", total)
	}
	for r, c := range perRound {
		if c != 1 {
			t.Fatalf("round %d had %d crashes, want 1", r, c)
		}
	}
}

func TestTargetLittleRoundZeroOnly(t *testing.T) {
	a := NewTargetLittle(10, 4, 5)
	crashes := 0
	for id := 0; id < 10; id++ {
		if out, crash := a.FilterSend(0, id, envs(id, 3)); crash {
			crashes++
			if len(out) != 0 {
				t.Fatal("target-little delivered messages from a crashed node")
			}
		}
	}
	if crashes != 4 {
		t.Fatalf("crashed %d little nodes, want 4", crashes)
	}
	for id := 0; id < 10; id++ {
		if _, crash := a.FilterSend(1, id, envs(id, 3)); crash {
			t.Fatal("target-little crashed after round 0")
		}
	}
}

func TestIsolateBlocksContact(t *testing.T) {
	const victim = 7
	a := NewIsolate(victim, 4)

	// Victim's own sends are suppressed while budget lasts.
	out, crash := a.FilterSend(0, victim, envs(victim, 2))
	if crash {
		t.Fatal("victim was crashed")
	}
	if len(out) != 0 {
		t.Fatalf("victim delivered %d messages, want 0", len(out))
	}

	// A node sending to the victim is crashed.
	in := []sim.Envelope{{From: 3, To: victim, Payload: sim.Bit(true)}}
	out, crash = a.FilterSend(1, 3, in)
	if !crash || len(out) != 0 {
		t.Fatalf("contacting node not crashed: crash=%v len=%d", crash, len(out))
	}

	// Budget exhausted (2 spent on victim sends, 1 on node 3): one more
	// allowed, then contact goes through.
	_, crash = a.FilterSend(2, 4, in)
	if !crash {
		t.Fatal("fourth budget unit not spent")
	}
	out, crash = a.FilterSend(3, 5, []sim.Envelope{{From: 5, To: victim, Payload: sim.Bit(true)}})
	if crash || len(out) != 1 {
		t.Fatal("exhausted adversary still intercepting")
	}
}

// mapSchedule is the map-per-round Schedule this package shipped
// before the per-node table, kept as the reference the table is
// compared against.
type mapSchedule struct{ byRound map[int][]Event }

func newMapSchedule(events []Event) *mapSchedule {
	s := &mapSchedule{byRound: make(map[int][]Event)}
	seen := make(map[sim.NodeID]bool)
	for _, e := range events {
		if seen[e.Node] {
			continue
		}
		seen[e.Node] = true
		s.byRound[e.Round] = append(s.byRound[e.Round], e)
	}
	for _, evs := range s.byRound {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Node < evs[j].Node })
	}
	return s
}

func (s *mapSchedule) FilterSend(round int, from sim.NodeID, outbox []sim.Envelope) ([]sim.Envelope, bool) {
	for _, e := range s.byRound[round] {
		if e.Node != from {
			continue
		}
		if e.Keep < 0 || e.Keep >= len(outbox) {
			return outbox, true
		}
		return outbox[:e.Keep], true
	}
	return outbox, false
}

func (s *mapSchedule) CrashEvents() []sim.CrashEvent {
	rounds := make([]int, 0, len(s.byRound))
	for r := range s.byRound {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	var events []sim.CrashEvent
	for _, r := range rounds {
		for _, e := range s.byRound[r] {
			events = append(events, sim.CrashEvent{Node: e.Node, Round: e.Round, Keep: e.Keep})
		}
	}
	return events
}

// TestScheduleMatchesMapReference: random schedules — duplicate nodes,
// keeps below zero, zero, inside and beyond the outbox — give the
// verdicts and the declared events of the map-based reference, for
// every (round, sender) including senders outside the table.
func TestScheduleMatchesMapReference(t *testing.T) {
	const n, horizon, width = 24, 12, 5
	for seed := uint64(1); seed <= 200; seed++ {
		r := rng.New(seed)
		events := make([]Event, r.Intn(2*n))
		for i := range events {
			events[i] = Event{Node: r.Intn(n), Round: r.Intn(horizon), Keep: r.Intn(width+4) - 2}
		}
		got, want := NewSchedule(events), newMapSchedule(events)
		if !reflect.DeepEqual(got.CrashEvents(), want.CrashEvents()) {
			t.Fatalf("seed %d: CrashEvents diverged:\n got %v\nwant %v", seed, got.CrashEvents(), want.CrashEvents())
		}
		if len(got.events) != len(want.CrashEvents()) {
			t.Fatalf("seed %d: Total = %d, want %d", seed, len(got.events), len(want.CrashEvents()))
		}
		for round := -1; round <= horizon; round++ {
			for from := -2; from < n+3; from++ {
				out := envs(max(from, 0), width)
				gotOut, gotCrash := got.FilterSend(round, from, out)
				wantOut, wantCrash := want.FilterSend(round, from, out)
				if gotCrash != wantCrash || len(gotOut) != len(wantOut) {
					t.Fatalf("seed %d round %d from %d: (%d kept, crash=%v), want (%d, %v)",
						seed, round, from, len(gotOut), gotCrash, len(wantOut), wantCrash)
				}
			}
		}
	}
}

// TestCrashEventsShared: every CrashPlan here builds its declarative
// form once, so the engines' per-run (and the sliced engine's per-lane)
// CrashEvents call allocates nothing, and the declared events are
// exactly the crash verdicts FilterSend returns.
func TestCrashEventsShared(t *testing.T) {
	for _, c := range []struct {
		name string
		plan interface {
			sim.LinkFault
			sim.CrashPlan
		}
	}{
		{"schedule", NewSchedule([]Event{{Node: 4, Round: 3, Keep: 1}, {Node: 2, Round: 3, Keep: -1}, {Node: 9, Round: 0}})},
		{"random", NewRandom(40, 8, 12, 5)},
		{"cascade", NewCascade(30, 6, 1, 3)},
		{"target-little", NewTargetLittle(30, 6, 5)},
	} {
		if allocs := testing.AllocsPerRun(100, func() { c.plan.CrashEvents() }); allocs != 0 {
			t.Errorf("%s: CrashEvents allocates %.0f times per call, want 0", c.name, allocs)
		}
		declared := map[[2]int]int{}
		for _, e := range c.plan.CrashEvents() {
			declared[[2]int{e.Round, e.Node}] = e.Keep
		}
		for round := 0; round < 16; round++ {
			for id := 0; id < 40; id++ {
				out, crash := c.plan.FilterSend(round, id, envs(id, 4))
				keep, ok := declared[[2]int{round, id}]
				if crash != ok {
					t.Fatalf("%s: round %d node %d: FilterSend crash=%v, declared %v", c.name, round, id, crash, ok)
				}
				if ok && keep >= 0 && keep < 4 && len(out) != keep {
					t.Fatalf("%s: round %d node %d: kept %d, declared %d", c.name, round, id, len(out), keep)
				}
			}
		}
	}
}
