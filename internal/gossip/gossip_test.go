package gossip

import (
	"testing"

	"lineartime/internal/bitset"
	"lineartime/internal/consensus"
	"lineartime/internal/crash"
	"lineartime/internal/rng"
	"lineartime/internal/sim"
)

func runGossip(t *testing.T, n, tt int, adv sim.LinkFault, seed uint64) ([]*Gossip, *sim.Result) {
	t.Helper()
	top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*Gossip, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ms[i] = New(i, top, Rumor(1000+i))
		ps[i] = ms[i]
	}
	res, err := sim.Run(sim.Config{Protocols: ps, Fault: adv, MaxRounds: top.Schedule.Gossip + 5})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return ms, res
}

// checkGossip verifies the §2 gossiping conditions: (1) nodes that
// crashed before sending anything appear in no decided extant set,
// (2) nodes that halted operational appear, with the right rumor, in
// every decided extant set.
func checkGossip(t *testing.T, ms []*Gossip, res *sim.Result, silentCrashed []int) {
	t.Helper()
	silent := make(map[int]bool, len(silentCrashed))
	for _, v := range silentCrashed {
		silent[v] = true
	}
	for i, m := range ms {
		if res.Crashed.Contains(i) {
			continue
		}
		e := m.Extant()
		for j := range ms {
			switch {
			case silent[j]:
				if e.Present(j) {
					t.Fatalf("node %d's extant set contains silently-crashed node %d", i, j)
				}
			case !res.Crashed.Contains(j):
				if !e.Present(j) {
					t.Fatalf("node %d's extant set misses operational node %d", i, j)
				}
				if e.Rumor(j) != Rumor(1000+j) {
					t.Fatalf("node %d has wrong rumor for %d: %d", i, j, e.Rumor(j))
				}
			}
		}
	}
}

func TestGossipNoFaults(t *testing.T) {
	ms, res := runGossip(t, 60, 12, nil, 1)
	checkGossip(t, ms, res, nil)
	// Theorem 9 shape: O(log n log t) rounds.
	if res.Metrics.Rounds > 400 {
		t.Fatalf("rounds = %d, far above O(log n · log t)", res.Metrics.Rounds)
	}
}

func TestGossipSilentCrashes(t *testing.T) {
	// Nodes crashed at round 0 with no deliveries must be excluded.
	n, tt := 60, 12
	var events []crash.Event
	var silent []int
	for i := 0; i < tt; i++ {
		v := 3 + 5*i // mixed little and non-little victims
		events = append(events, crash.Event{Node: v, Round: 0, Keep: 0})
		silent = append(silent, v)
	}
	ms, res := runGossip(t, n, tt, crash.NewSchedule(events), 2)
	checkGossip(t, ms, res, silent)
}

func TestGossipRandomCrashes(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		n, tt := 50, 10
		adv := crash.NewRandom(n, tt, 30, seed)
		ms, res := runGossip(t, n, tt, adv, seed+7)
		// Only condition (2) is checkable without knowing which
		// crashed nodes were silent: operational nodes must be
		// everywhere with correct rumors.
		checkGossip(t, ms, res, nil)
	}
}

func TestGossipLittleTargeted(t *testing.T) {
	n, tt := 60, 12
	adv := crash.NewTargetLittle(5*tt, tt, 3)
	ms, res := runGossip(t, n, tt, adv, 4)
	var silent []int
	res.Crashed.ForEach(func(v int) { silent = append(silent, v) })
	checkGossip(t, ms, res, silent)
}

func TestGossipMessageShape(t *testing.T) {
	// Theorem 9: O(n + t log n log t) messages.
	n, tt := 200, 40
	ms, res := runGossip(t, n, tt, nil, 9)
	_ = ms
	logn, logt := 8, 6 // lg 200 ≈ 7.6, lg 40 ≈ 5.3
	limit := int64(24 * (n + tt*logn*logt*20))
	if res.Metrics.Messages > limit {
		t.Fatalf("messages = %d exceed shape bound %d", res.Metrics.Messages, limit)
	}
}

func TestExtantSetOps(t *testing.T) {
	e := NewExtantSet(10)
	e.Update(3, 42)
	e.Update(3, 99) // ignored: pairs are immutable once proper
	if !e.Present(3) || e.Rumor(3) != 42 {
		t.Fatalf("pair (3,42) mangled: present=%v rumor=%d", e.Present(3), e.Rumor(3))
	}
	other := NewExtantSet(10)
	other.Update(5, 7)
	e.MergeFrom(other)
	if !e.Present(5) || e.Rumor(5) != 7 {
		t.Fatal("merge failed")
	}
	if e.Count() != 2 {
		t.Fatalf("count = %d, want 2", e.Count())
	}
	s := e.Snapshot()
	e.Update(1, 1)
	if s.Present(1) || s.Count() != 2 {
		t.Fatal("snapshot aliases original")
	}
}

// TestFullSetsLearnNothing drives both set kinds through random
// interleavings of single adds and merges, most of them long enough to
// fill the set, against a model that knows no shortcut: membership,
// rumors (the first pair seen wins, whatever the merge order), the
// cached Count and the O(1) Full always agree with a recount, merging
// the same set twice changes nothing, and a full set comes through
// further merges untouched.
func TestFullSetsLearnNothing(t *testing.T) {
	r := rng.New(0xF011)
	for _, n := range []int{1, 5, 64, 65, 130} {
		for trial := 0; trial < 50; trial++ {
			e, c := NewExtantSet(n), NewCompletionSet(n)
			members, rumors := bitset.New(n), make([]Rumor, n)
			covered := bitset.New(n)
			for step := r.Intn(4 * n); step >= 0; step-- {
				other := randomExtant(r, n, r.Intn(101))
				node := r.Intn(n)
				if r.Intn(2) == 0 {
					rumor := Rumor(r.Uint64())
					e.Update(node, rumor)
					if !members.Contains(node) {
						members.Add(node)
						rumors[node] = rumor
					}
					if got, want := c.Add(node), !covered.Contains(node); got != want {
						t.Fatalf("n=%d: Add(%d) = %v, want %v", n, node, got, want)
					}
					covered.Add(node)
				} else {
					e.MergeFrom(other)
					e.MergeFrom(other)
					other.known.ForEach(func(j int) {
						if !members.Contains(j) {
							members.Add(j)
							rumors[j] = other.rumors[j]
						}
					})
					c.MergeFrom(&other.known)
					c.MergeFrom(&other.known)
					covered.UnionWith(&other.known)
				}
				if !e.known.Equal(members) || e.Count() != members.Count() {
					t.Fatalf("n=%d: view has %d members (count %d), model %d", n, e.known.Count(), e.Count(), members.Count())
				}
				members.ForEach(func(j int) {
					if e.Rumor(j) != rumors[j] {
						t.Fatalf("n=%d: rumor of %d = %d, model %d", n, j, e.Rumor(j), rumors[j])
					}
				})
				if !c.set.Equal(covered) || c.count != covered.Count() || c.Full() != (covered.Count() == n) {
					t.Fatalf("n=%d: completion set %v (count %d, full %v), model %v", n, &c.set, c.count, c.Full(), covered)
				}
				if snap := c.Snapshot(); !snap.Equal(covered) {
					t.Fatalf("n=%d: completion snapshot %v is stale, set %v", n, snap, covered)
				}
			}
		}
	}
}

func TestPayloadSizes(t *testing.T) {
	e := NewExtantSet(100)
	e.Update(1, 5)
	e.Update(2, 6)
	if got := (ExtantPayload{Set: e}).SizeBits(); got != 100+2*RumorBits {
		t.Fatalf("extant payload bits = %d", got)
	}
	if got := (PairPayload{}).SizeBits(); got != 16+RumorBits {
		t.Fatalf("pair payload bits = %d", got)
	}
}

func TestAllToAllBaseline(t *testing.T) {
	n := 30
	ms := make([]*AllToAll, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ms[i] = NewAllToAll(i, n, Rumor(1000+i))
		ps[i] = ms[i]
	}
	res, err := sim.Run(sim.Config{Protocols: ps, MaxRounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Messages != int64(n*(n-1)) {
		t.Fatalf("messages = %d, want n(n-1)", res.Metrics.Messages)
	}
	for i, m := range ms {
		for j := 0; j < n; j++ {
			if !m.Extant().Present(j) {
				t.Fatalf("baseline node %d misses %d", i, j)
			}
		}
	}
}

func TestAllToAllWithSilentCrash(t *testing.T) {
	n := 20
	ps := make([]sim.Protocol, n)
	ms := make([]*AllToAll, n)
	for i := 0; i < n; i++ {
		ms[i] = NewAllToAll(i, n, Rumor(i))
		ps[i] = ms[i]
	}
	adv := crash.NewSchedule([]crash.Event{{Node: 4, Round: 0, Keep: 0}})
	res, err := sim.Run(sim.Config{Protocols: ps, Fault: adv, MaxRounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		if res.Crashed.Contains(i) {
			continue
		}
		if m.Extant().Present(4) {
			t.Fatalf("node %d includes silently crashed node 4", i)
		}
	}
}
