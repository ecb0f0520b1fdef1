package gossip

import (
	"testing"
	"testing/quick"

	"lineartime/internal/consensus"
	"lineartime/internal/crash"
	"lineartime/internal/rng"
	"lineartime/internal/sim"
)

// Property: rumor integrity — whatever crash schedule runs, any rumor
// present in a decided extant set equals the owner's true input. A
// protocol bug that cross-wires pairs (e.g. attributing node a's rumor
// to node b) breaks this before it breaks completeness.
func TestGossipRumorIntegrityQuick(t *testing.T) {
	const n, tt = 40, 8
	top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		rumors := make([]Rumor, n)
		for i := range rumors {
			rumors[i] = Rumor(r.Uint64())
		}
		var events []crash.Event
		perm := r.Perm(n)
		f := r.Intn(tt + 1)
		for i := 0; i < f; i++ {
			events = append(events, crash.Event{
				Node:  perm[i],
				Round: r.Intn(40),
				Keep:  r.Intn(4) - 1,
			})
		}
		ms := make([]*Gossip, n)
		ps := make([]sim.Protocol, n)
		for i := 0; i < n; i++ {
			ms[i] = New(i, top, rumors[i])
			ps[i] = ms[i]
		}
		res, err := sim.Run(sim.Config{
			Protocols: ps,
			Fault:     crash.NewSchedule(events),
			MaxRounds: top.Schedule.Gossip + 4,
		})
		if err != nil {
			return false
		}
		for i, m := range ms {
			if res.Crashed.Contains(i) {
				continue
			}
			e := m.Extant()
			for j := 0; j < n; j++ {
				if e.Present(j) && e.Rumor(j) != rumors[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: extant sets only grow through a run — already-proper pairs
// are never dropped or overwritten (checked indirectly: own pair is
// always present with the true rumor).
func TestGossipOwnPairStableQuick(t *testing.T) {
	const n, tt = 40, 8
	top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed uint64) bool {
		ms := make([]*Gossip, n)
		ps := make([]sim.Protocol, n)
		for i := 0; i < n; i++ {
			ms[i] = New(i, top, Rumor(seed)+Rumor(i))
			ps[i] = ms[i]
		}
		res, err := sim.Run(sim.Config{
			Protocols: ps,
			Fault:     crash.NewRandom(n, tt, 30, seed),
			MaxRounds: top.Schedule.Gossip + 4,
		})
		if err != nil {
			return false
		}
		for i, m := range ms {
			if res.Crashed.Contains(i) {
				continue
			}
			if !m.Extant().Present(i) || m.Extant().Rumor(i) != Rumor(seed)+Rumor(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
