package consensus

import (
	"testing"

	"lineartime/internal/crash"
	"lineartime/internal/sim"
)

// Edge-case coverage for the protocol stacks.

func TestFewCrashesZeroT(t *testing.T) {
	// t = 0: the degenerate topology keeps a 5-node little overlay and
	// consensus must still work (and trivially, nothing crashes).
	n := 30
	top, err := NewTopology(n, 0, TopologyOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	inputs := inputsPattern(n, "half", 1)
	ms := make([]*FewCrashes, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ms[i] = new(FewCrashes)
		ms[i].Init(i, top, inputs[i])
		ps[i] = ms[i]
	}
	res, err := sim.Run(sim.Config{Protocols: ps, MaxRounds: top.Schedule.Few + 4})
	if err != nil {
		t.Fatal(err)
	}
	checkConsensus(t, "t=0", inputs, collectFew(ms), res.Crashed.Contains)
}

func TestFewCrashesMinimumN(t *testing.T) {
	// The smallest supported system: n = 5 (one little overlay = K_5).
	n := 5
	top, err := NewTopology(n, 1, TopologyOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	inputs := []bool{true, false, true, false, true}
	ms := make([]*FewCrashes, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ms[i] = new(FewCrashes)
		ms[i].Init(i, top, inputs[i])
		ps[i] = ms[i]
	}
	res, err := sim.Run(sim.Config{Protocols: ps, MaxRounds: top.Schedule.Few + 4})
	if err != nil {
		t.Fatal(err)
	}
	checkConsensus(t, "n=5", inputs, collectFew(ms), res.Crashed.Contains)
}

func TestSCVNoHoldersStaysUndecided(t *testing.T) {
	// SCV's contract needs ≥ 3n/5 holders; with zero holders nobody
	// can decide, and the run must still terminate cleanly (no hangs,
	// no fabricated values).
	n, tt := 40, 8
	top, err := NewTopology(n, tt, TopologyOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*SCV, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ms[i] = NewSCV(i, top, false, false, 0, true)
		ps[i] = ms[i]
	}
	res, err := sim.Run(sim.Config{Protocols: ps, MaxRounds: top.Schedule.SCV + 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		if _, ok := m.Decided(); ok {
			t.Fatalf("node %d decided with zero holders", i)
		}
	}
	if res.Metrics.Rounds != top.Schedule.SCV {
		t.Fatal("schedule not completed")
	}
}

func TestManyCrashesFallbackDisabled(t *testing.T) {
	// With the terminal rule off and every responder dead, stragglers
	// stay undecided — documenting exactly what the fallback buys.
	n := 24
	tt := n - 1
	mt, err := NewManyTopology(n, tt, TopologyOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*ManyCrashes, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ms[i] = NewManyCrashes(i, mt, true)
		ms[i].fallback = false
		ps[i] = ms[i]
	}
	events := make([]crash.Event, 0, tt)
	for i := 1; i < n; i++ {
		events = append(events, crash.Event{Node: i, Round: 0, Keep: 0})
	}
	_, err = sim.Run(sim.Config{
		Protocols: ps,
		Fault:     crash.NewSchedule(events),
		MaxRounds: mt.Schedule.Many + 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ms[0].Decision(); ok {
		t.Fatal("lone survivor decided without fallback or responders")
	}
}

func TestAEAEmbeddedOffset(t *testing.T) {
	// AEA embedded at a non-zero base must behave identically to a
	// standalone run shifted by the offset.
	n, tt := 50, 10
	top, err := NewTopology(n, tt, TopologyOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const base = 17
	inputs := inputsPattern(n, "littleone", 0)
	ms := make([]*AEA, n)
	ps := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		ms[i] = NewAEA(i, top, inputs[i], base, false)
		ps[i] = &haltAfter{inner: ms[i], at: base + top.Schedule.AEA}
	}
	res, err := sim.Run(sim.Config{Protocols: ps, MaxRounds: base + top.Schedule.AEA + 4})
	if err != nil {
		t.Fatal(err)
	}
	deciders := 0
	for _, m := range ms {
		if v, ok := m.Decided(); ok {
			deciders++
			if !v {
				t.Fatal("wrong decision in embedded AEA")
			}
		}
	}
	if deciders < 3*n/5 {
		t.Fatalf("embedded AEA: %d deciders < 3n/5", deciders)
	}
	// No messages may be sent before the base round.
	for r := 0; r < base && r < len(res.Metrics.PerRoundMessages); r++ {
		if res.Metrics.PerRoundMessages[r] != 0 {
			t.Fatalf("embedded AEA sent %d messages at round %d < base",
				res.Metrics.PerRoundMessages[r], r)
		}
	}
}

// haltAfter wraps a non-standalone protocol with an external halting
// schedule, standing in for the embedding protocol.
type haltAfter struct {
	inner  sim.Protocol
	at     int
	halted bool
}

func (h *haltAfter) Send(round int) []sim.Envelope { return h.inner.Send(round) }
func (h *haltAfter) Deliver(round int, inbox []sim.Envelope) {
	h.inner.Deliver(round, inbox)
	if round >= h.at-1 {
		h.halted = true
	}
}
func (h *haltAfter) Halted() bool { return h.halted }
