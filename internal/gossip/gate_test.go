package gossip

import (
	"reflect"
	"testing"

	"lineartime/internal/consensus"
	"lineartime/internal/crash"
	"lineartime/internal/expander"
	"lineartime/internal/sim"
)

// ungated is the machine without Send's phase-opener gate: a little
// node that survived the previous phase asks for G_i in every opening
// round and tests each neighbor. The reference the gate is exact
// against; not a sim.Sleeper, so the engine steps it in every round.
type ungated struct{ g *Gossip }

func (u ungated) Deliver(round int, inbox []sim.Envelope) { u.g.Deliver(round, inbox) }

func (u ungated) Halted() bool { return u.g.Halted() }

func (u ungated) Send(round int) []sim.Envelope {
	g := u.g
	if round >= g.top.Schedule.Gossip {
		return nil
	}
	part, phase, off := g.top.Schedule.GossipAt(round)
	g.close(round - off)
	if off != 0 || !g.top.IsLittle(g.id) || (phase > 0 && !g.survivedPrev) {
		return g.Send(round)
	}
	g.out.Reset(0)
	for _, v := range g.overlayFor(phase) {
		switch {
		case part == 1 && !g.extant.Present(v):
			g.out.Add(g.id, v, sim.Inquiry{})
		case part == 2 && g.completion.Add(v):
			g.out.Add(g.id, v, ExtantPayload{Set: g.extant.Snapshot()})
		}
	}
	return g.out
}

// TestPhaseOpenerGateIsExact runs the gated machines against the
// ungated reference under no faults, silent crashes, random crashes
// (midway multicasts included) and crashes aimed at the little nodes:
// the same messages in every round, the same bits, the same crash set
// and the same decided view at every node — while the gated system asks
// the overlay cache for fewer graphs whenever a phase had nobody left to
// ask.
func TestPhaseOpenerGateIsExact(t *testing.T) {
	const n, tt = 70, 14
	faults := map[string]func(seed uint64) sim.LinkFault{
		"none":   func(uint64) sim.LinkFault { return nil },
		"random": func(seed uint64) sim.LinkFault { return crash.NewRandom(n, tt, 60, seed) },
		"little": func(seed uint64) sim.LinkFault { return crash.NewTargetLittle(5*tt, tt, seed) },
		"silent": func(seed uint64) sim.LinkFault {
			var events []crash.Event
			for i := 0; i < tt; i++ {
				events = append(events, crash.Event{Node: (int(seed) + 5*i) % n, Round: 0})
			}
			return crash.NewSchedule(events)
		},
	}
	for name, fault := range faults {
		fewer := false
		for seed := uint64(1); seed <= 6; seed++ {
			run := func(wrap bool) ([]*Gossip, *sim.Result, int64) {
				top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: 0x6a7e00 + seed})
				if err != nil {
					t.Fatal(err)
				}
				ms := make([]*Gossip, n)
				ps := make([]sim.Protocol, n)
				for i := range ms {
					ms[i] = New(i, top, Rumor(1000+i))
					ps[i] = ms[i]
					if wrap {
						ps[i] = ungated{ms[i]}
					}
				}
				before := expander.Stats()
				res, err := sim.Run(sim.Config{Protocols: ps, Fault: fault(seed), PartLabeler: top.Schedule.GossipParts().Label, MaxRounds: top.Schedule.Gossip + 5})
				if err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
				after := expander.Stats()
				return ms, res, after.Hits + after.Misses - before.Hits - before.Misses
			}
			want, wantRes, wantGraphs := run(true)
			got, gotRes, gotGraphs := run(false)
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("%s seed %d: gated run %+v\nungated run %+v", name, seed, gotRes.Metrics, wantRes.Metrics)
			}
			for i := range got {
				g, w := got[i].Extant(), want[i].Extant()
				if !g.known.Equal(&w.known) || !reflect.DeepEqual(g.rumors, w.rumors) {
					t.Fatalf("%s seed %d: node %d decided a different view", name, seed, i)
				}
			}
			if gotGraphs > wantGraphs {
				t.Fatalf("%s seed %d: the gate asked for %d inquiry graphs, the reference for %d", name, seed, gotGraphs, wantGraphs)
			}
			fewer = fewer || gotGraphs < wantGraphs
		}
		if name == "none" && !fewer {
			t.Fatal("fault-free runs built every inquiry graph the ungated machine builds")
		}
	}
}
