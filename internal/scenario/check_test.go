package scenario

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lineartime/internal/sim"
)

// checkSpecs returns every registry row at (50, 8) — t = 4 for the
// Byzantine rows — under the given number of seeds: as registered, and
// each fault-free row of a crash-tolerant problem again under t random
// crashes spread over its whole schedule.
func checkSpecs(seeds int) []Spec {
	var sps []Spec
	for _, d := range All() {
		n, tt := 50, 8
		if d.Problem == ByzantineConsensus {
			tt = 4
		}
		for s := range seeds {
			sp := d.Spec(n, tt, 0xc4ec0000+uint64(s))
			sps = append(sps, sp)
			if d.Fault.Kind == NoFailures && d.Problem != ByzantineConsensus {
				st, _ := stackOf(sp)
				sp.Fault = FaultModel{Kind: RandomCrashes, Count: tt, Horizon: st.horizon(sp)}
				sps = append(sps, sp)
			}
		}
	}
	return sps
}

// allCrashedSpecs returns every fault-free crash-tolerant registry row
// at n = 30 with all 30 nodes crashed at round 0: runs with no survivor,
// whose every guarantee holds vacuously.
func allCrashedSpecs() []Spec {
	const n = 30
	var sps []Spec
	for _, d := range All() {
		if d.Fault.Kind != NoFailures || d.Problem == ByzantineConsensus {
			continue
		}
		sp := d.Spec(n, 5, 0xdead)
		sp.Fault = FaultModel{Kind: CrashSchedule}
		for i := range n {
			sp.Fault.Schedule = append(sp.Fault.Schedule, CrashEvent{Node: i})
		}
		sps = append(sps, sp)
	}
	return sps
}

// TestCheckNoSurvivorIsVacuous runs every crash-tolerant row with every
// node crashed, through ExecuteBatch: with nobody left to decide, no
// survivor guarantee is violated — in particular no checkpoint row
// reports a missing common set — and the verdict the judged flags give
// holds. The subroutines' 3n/5 deciders are a count over all n nodes,
// so crashing all of them breaks that one honestly.
func TestCheckNoSurvivorIsVacuous(t *testing.T) {
	sps := allCrashedSpecs()
	reps, errs := ExecuteBatch(sps)
	for i, sp := range sps {
		rep := reps[i]
		if errs[i] != nil {
			t.Fatalf("%s: %v", sp.Name, errs[i])
		}
		if len(rep.Crashed) != sp.N {
			t.Fatalf("%s: %d of %d nodes crashed", sp.Name, len(rep.Crashed), sp.N)
		}
		for _, v := range Check(sp, rep) {
			if v.Guarantee != Deciders {
				t.Errorf("%s: a run with no survivor judged %v", sp.Name, v)
			}
		}
		if text, violated := Verdict(rep); violated != (rep.Subroutine != nil) {
			t.Errorf("%s: a run with no survivor rendered %q, violated=%v", sp.Name, text, violated)
		}
	}
}

// TestCheckRegistry runs every registry row × 8 seeds (2 under -short),
// and the fault-free rows again under t random crashes, through
// ExecuteBatch and judges every report with Check: a row may break only
// the guarantees its definition declares in MayBreak, and every row
// declares nothing it does not need — each declared guarantee breaks in
// at least one of the row's runs once all 8 seeds run.
func TestCheckRegistry(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 2
	}
	sps := checkSpecs(seeds)
	reps, errs := ExecuteBatch(sps)
	broken := make(map[string]map[Guarantee]bool)
	for i, sp := range sps {
		tag := fmt.Sprintf("%s fault=%v seed=%#x", sp.Name, sp.Fault.Kind, sp.Seed)
		if errs[i] != nil {
			t.Fatalf("%s: %v", tag, errs[i])
		}
		d := MustLookup(sp.Name)
		for _, v := range Check(sp, reps[i]) {
			if !slices.Contains(d.MayBreak, v.Guarantee) {
				t.Errorf("%s: undeclared violation: %v", tag, v)
			}
			if broken[sp.Name] == nil {
				broken[sp.Name] = make(map[Guarantee]bool)
			}
			broken[sp.Name][v.Guarantee] = true
		}
	}
	if testing.Short() {
		return
	}
	for _, d := range All() {
		for _, g := range d.MayBreak {
			if !broken[d.Name][g] {
				t.Errorf("%s declares it may break %s, and no run did", d.Name, g)
			}
		}
	}
}

// TestCheckCatchesDoctoredReports feeds Check honest reports with one
// field falsified per problem, and requires exactly the guarantee the
// falsification breaks — so that a Check which reads the outcome's
// booleans, or skips a problem, fails here and not only in the field.
func TestCheckCatchesDoctoredReports(t *testing.T) {
	const n, tt = 30, 5
	run := func(name string, edit func(*Spec)) (Spec, *Report) {
		t.Helper()
		sp := MustLookup(name).Spec(n, tt, 0xd0c7)
		if edit != nil {
			edit(&sp)
		}
		rep, err := Run(sp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if vs := Check(sp, rep); len(vs) != 0 {
			t.Fatalf("%s: honest run judged %v", name, vs)
		}
		return sp, rep
	}
	crashOne := func(sp *Spec) {
		sp.Fault = FaultModel{Kind: CrashSchedule, Schedule: []CrashEvent{{Node: 7, Round: 2, Keep: -1}}}
	}
	cases := []struct {
		name, row string
		edit      func(*Spec)
		doctor    func(*Report)
		want      Guarantee
	}{
		{"consensus flipped", "consensus/few-crashes", nil, func(r *Report) { r.Consensus.Decisions[3] ^= 1 }, Agreement},
		{"consensus undecided", "consensus/few-crashes", nil, func(r *Report) { r.Consensus.Decisions[4] = -1 }, Termination},
		{"consensus invented", "consensus/flooding", func(sp *Spec) { clear(sp.BoolInputs) }, func(r *Report) {
			for i := range r.Consensus.Decisions {
				r.Consensus.Decisions[i] = 1
			}
		}, Validity},
		{"gossip lost rumor", "gossip/expander", nil, func(r *Report) {
			view := make(map[int]uint64)
			for j, v := range r.Gossip.Extant[2] {
				view[j] = v
			}
			delete(view, 9)
			r.Gossip.Extant[2] = view
		}, Completeness},
		{"gossip invented rumor", "gossip/all-to-all", nil, func(r *Report) {
			view := make(map[int]uint64)
			for j, v := range r.Gossip.Extant[2] {
				view[j] = v + 1
			}
			r.Gossip.Extant[2] = view
		}, Integrity},
		{"gossip shared view lost rumor", "gossip/expander", nil, func(r *Report) { delete(r.Gossip.Extant[2], 9) }, Completeness},
		{"gossip shared view invented rumor", "gossip/all-to-all", nil, func(r *Report) { r.Gossip.Extant[2][5]++ }, Integrity},
		{"checkpoint split", "checkpoint/direct", nil, func(r *Report) { r.Checkpoint.ExtantSet = nil }, Agreement},
		{"checkpoint lost survivor", "checkpoint/expander", crashOne, func(r *Report) {
			r.Checkpoint.ExtantSet = slices.DeleteFunc(slices.Clone(r.Checkpoint.ExtantSet), func(i int) bool { return i == 11 })
		}, Completeness},
		{"byzantine split", "byzantine/ab-consensus", nil, func(r *Report) { r.Byzantine.Decisions[1]++ }, Agreement},
		{"byzantine undecided", "byzantine/dolev-strong-all", nil, func(r *Report) { r.Byzantine.Decided[0] = false }, Termination},
		{"majority split", "majority/expander", nil, func(r *Report) { r.Majority.Agreement = false }, Agreement},
		{"majority padded", "majority/expander", nil, func(r *Report) { r.Majority.YesVotes = n }, Integrity},
		{"majority lost ballot", "majority/expander", crashOne, func(r *Report) { r.Majority.Ballots = n - 2 }, Completeness},
		{"subroutine short", "aea/expander", nil, func(r *Report) { r.Subroutine.Deciders = 3*n/5 - 1 }, Deciders},
		{"overrun", "scv/expander", nil, func(r *Report) { r.Metrics.Rounds += 100 }, Bounds},
		{"per-part overcount", "consensus/many-crashes", nil, func(r *Report) { r.Metrics.PerPart["flood"] += r.Metrics.Messages }, Bounds},
		// The sum still equals Messages: only aea/notify's bound, n − L,
		// sees the probes booked there.
		{"per-part misbooked", "consensus/few-crashes", nil, func(r *Report) {
			r.Metrics.PerPart["aea/notify"] += r.Metrics.PerPart["aea/probing"]
			delete(r.Metrics.PerPart, "aea/probing")
		}, Bounds},
	}
	for _, c := range cases {
		sp, rep := run(c.row, c.edit)
		// An honest gossip run here is complete, so its survivors share
		// one view map: the shared-view cases edit it in place.
		var view uintptr
		if rep.Gossip != nil {
			view = reflect.ValueOf(rep.Gossip.Extant[2]).Pointer()
			for i, v := range rep.Gossip.Extant {
				if v != nil && reflect.ValueOf(v).Pointer() != view {
					t.Fatalf("%s: survivor %d's view is not survivor 2's map", c.name, i)
				}
			}
		}
		c.doctor(rep)
		vs := Check(sp, rep)
		if len(vs) == 0 {
			t.Fatalf("%s: Check passed a doctored report", c.name)
		}
		for _, v := range vs {
			if v.Guarantee != c.want {
				t.Fatalf("%s: %v, want only %s violations", c.name, vs, c.want)
			}
		}
		// A gossip doctor edits survivor 2's view: each survivor that
		// reads the doctored map is flagged, in order, and nobody else —
		// survivor 2 alone for a fresh map, everyone for the shared one.
		if rep.Gossip == nil {
			continue
		}
		var readers []int
		view = reflect.ValueOf(rep.Gossip.Extant[2]).Pointer()
		for i, v := range rep.Gossip.Extant {
			if v != nil && reflect.ValueOf(v).Pointer() == view {
				readers = append(readers, i)
			}
		}
		if len(vs) != len(readers) {
			t.Fatalf("%s: %d violations for the %d survivors reading the view: %v", c.name, len(vs), len(readers), vs)
		}
		for k, i := range readers {
			if want := fmt.Sprintf("survivor %d's view ", i); !strings.HasPrefix(vs[k].Detail, want) {
				t.Fatalf("%s: violation %d is %q, want survivor %d's", c.name, k, vs[k].Detail, i)
			}
		}
	}
}

// notifyAll is a mutant little node of Few-Crashes-Consensus whose AEA
// Part 3 notifies all n nodes rather than its related ones.
type notifyAll struct {
	sim.Protocol
	id, n, notify int
}

func (m notifyAll) Send(round int) []sim.Envelope {
	out := m.Protocol.Send(round)
	if round != m.notify || len(out) == 0 {
		return out
	}
	all := make([]sim.Envelope, 0, m.n-1)
	for to := range m.n {
		if to != m.id {
			all = append(all, sim.Envelope{From: m.id, To: to, Payload: out[0].Payload})
		}
	}
	return all
}

// TestCheckFlagsPartFanOut runs Few-Crashes-Consensus with AEA's Part 3
// fanned out to every node — each decision still reaches the nodes
// that read it, so every problem guarantee holds — and requires Check
// to flag the part's bound, and nothing else.
func TestCheckFlagsPartFanOut(t *testing.T) {
	sp := MustLookup("consensus/few-crashes").Spec(30, 5, 0xfa7)
	notify := sp.schedule().AEA - 1
	rep, _, err := runSpec(sp, func(ps []sim.Protocol) []sim.Protocol {
		out := make([]sim.Protocol, len(ps))
		for i, p := range ps {
			out[i] = notifyAll{p, i, sp.N, notify}
		}
		return out
	})
	if err != nil {
		t.Fatal(err)
	}
	vs := Check(sp, rep)
	if len(vs) == 0 {
		t.Fatalf("Check passed a run with %d aea/notify messages", rep.Metrics.PerPart["aea/notify"])
	}
	for _, v := range vs {
		if v.Guarantee != Bounds || !strings.Contains(v.Detail, `"aea/notify"`) {
			t.Fatalf("%v, want only aea/notify's bound broken", vs)
		}
	}
}

type checkShape struct {
	name string
	sp   Spec
	rep  *Report
}

// checkShapes are finished reports of three repository benchmark
// shapes, none of which breaks a guarantee: serve-cold (few-crashes
// n=256 t=50 under random crashes), serve-heavy (gossip/expander n=128
// t=24) and one omission lane of the batch-lanes call (gossip/expander
// n=192 t=36).
func checkShapes(tb testing.TB) []checkShape {
	tb.Helper()
	shapes := []checkShape{
		{name: "serve-cold", sp: serveColdSpec(tb, 7)},
		{name: "serve-heavy", sp: MustLookup("gossip/expander").Spec(128, 24, 0x4ea0_0001)},
		{name: "batch-lanes-omission", sp: linkFaultBatch(tb, 0x6a55_1000, 1)[0]},
	}
	for i := range shapes {
		c := &shapes[i]
		rep, err := Run(c.sp)
		if err != nil {
			tb.Fatal(err)
		}
		if vs := Check(c.sp, rep); len(vs) > 0 {
			tb.Fatalf("%s: %v", c.name, vs)
		}
		c.rep = rep
	}
	return shapes
}

// TestCheckAllocs bounds what judging a clean run costs every Run: on
// each benchmark shape, Check allocates at most the crash mask and one
// spill of its distinct-view list.
func TestCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, c := range checkShapes(t) {
		if a := testing.AllocsPerRun(20, func() { Check(c.sp, c.rep) }); a > 2 {
			t.Errorf("%s: Check allocates %.0f objects on a clean run, want ≤ 2", c.name, a)
		}
	}
}

// BenchmarkCheck times Check alone on checkShapes' reports: what
// judging adds to each Run.
func BenchmarkCheck(b *testing.B) {
	for _, c := range checkShapes(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Check(c.sp, c.rep)
			}
		})
	}
}
