package scenario

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"lineartime/internal/expander"
	"lineartime/internal/sim"
)

// unending hides a machine's halting, so a run lasts the engine's whole
// round budget; unendingPoller does the same for a single-port machine.
type unending struct{ sim.Protocol }

func (unending) Halted() bool { return false }

type unendingPoller struct{ sim.Poller }

func (unendingPoller) Halted() bool { return false }

func neverHalt(ps []sim.Protocol) []sim.Protocol {
	out := make([]sim.Protocol, len(ps))
	for i, p := range ps {
		if pl, ok := p.(sim.Poller); ok {
			out[i] = unendingPoller{pl}
		} else {
			out[i] = unending{p}
		}
	}
	return out
}

// scheduleLength is a built machine's own schedule length.
func scheduleLength(t *testing.T, p sim.Protocol) int {
	t.Helper()
	switch m := p.(type) {
	case interface{ ScheduleLength() int }:
		return m.ScheduleLength()
	case interface{ MaxRounds() int }:
		return m.MaxRounds()
	}
	t.Fatalf("%T reports no schedule length", p)
	return 0
}

// TestHorizonMatchesBuiltMachines pins every stack's horizon, which is
// computed from the spec alone, to what it stands for: over a grid that
// covers t = 0, sizes at which the overlays degenerate to K_n, a degree
// override that the overlay constructor bumps to keep n·d even, the
// horizon equals every built
// machine's own schedule length and the round budget the engine gets
// (less the slack), and computing it builds no overlay.
func TestHorizonMatchesBuiltMachines(t *testing.T) {
	points := []struct {
		name string
		n, t int
		edit func(*Spec)
	}{
		{"n=60,t=10", 60, 10, nil},
		{"t=0", 60, 0, nil},
		{"K_n,n=12", 12, 2, nil},
		{"K_n,n=17", 17, 3, nil},
		// L = 45 little nodes at degree 7: 45·7 is odd, the overlay has 8.
		{"degree=7", 60, 9, func(sp *Spec) { sp.Degree = 7 }},
		{"slack=3", 48, 8, func(sp *Spec) { sp.RoundSlack = 3 }},
	}
	seen := make(map[stackKey]bool)
	for _, d := range All() {
		key := stackKey{d.Problem, d.Algorithm, d.Port}
		if seen[key] {
			continue
		}
		seen[key] = true
		st, ok := stacks[key]
		if !ok {
			t.Fatalf("%s: no stack for %+v", d.Name, key)
		}
		for _, pt := range points {
			sp := d.Spec(pt.n, pt.t, 3)
			if pt.edit != nil {
				pt.edit(&sp)
			}
			tag := fmt.Sprintf("%s %s", d.Name, pt.name)

			before := expander.Stats()
			horizon := st.horizon(sp)
			if after := expander.Stats(); after != before {
				t.Fatalf("%s: computing the horizon touched the overlay cache: %+v → %+v", tag, before, after)
			}

			sys, err := st.build(sp)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			for i, p := range sys.ps {
				if got := scheduleLength(t, p); got != horizon {
					t.Fatalf("%s: node %d's schedule is %d rounds, the horizon %d", tag, i, got, horizon)
				}
			}
			sys.slab.release()

			_, _, err = runSpec(sp, neverHalt)
			budget := fmt.Sprintf("(MaxRounds=%d)", horizon+slackOf(sp))
			if !errors.Is(err, sim.ErrNoTermination) || !strings.HasSuffix(err.Error(), budget) {
				t.Fatalf("%s: unending run ended with %v, want a budget of %s", tag, err, budget)
			}
		}
	}
	if len(seen) != len(stacks) {
		t.Fatalf("the registry reaches %d of the %d stacks", len(seen), len(stacks))
	}
}

// TestScheduleMatchesBuiltOverlays pins the parameters the round plan is
// computed from to the overlays a topology really builds.
func TestScheduleMatchesBuiltOverlays(t *testing.T) {
	for _, pt := range [][3]int{{60, 10, 0}, {60, 0, 0}, {12, 2, 0}, {17, 3, 0}, {60, 9, 7}, {200, 40, 0}} {
		sp := MustLookup("consensus/few-crashes").Spec(pt[0], pt[1], 5)
		sp.Degree = pt[2]
		top, err := sp.newBroadcastTopology()
		if err != nil {
			t.Fatal(err)
		}
		h := top.MustBroadcast()
		if top.Schedule != sp.schedule() || top.Schedule.Little != top.Little.P || top.Schedule.Broadcast != h.P {
			t.Fatalf("%v: plan %+v does not match the overlays (little %+v, H %+v)", pt, top.Schedule, top.Little.P, h.P)
		}
	}
}
