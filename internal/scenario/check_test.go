package scenario

import (
	"errors"
	"fmt"
	"math"
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
// node crashed: with nobody left to decide, no survivor guarantee is
// violated — in particular no checkpoint row reports a missing common
// set. The subroutines' 3n/5 deciders are a count over all n nodes, so
// crashing all of them breaks that one honestly.
func TestCheckNoSurvivorIsVacuous(t *testing.T) {
	for _, sp := range allCrashedSpecs() {
		rep, err := Run(sp)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if len(rep.Crashed) != sp.N {
			t.Fatalf("%s: %d of %d nodes crashed", sp.Name, len(rep.Crashed), sp.N)
		}
		for _, v := range Check(sp, rep) {
			if v.Guarantee != Deciders {
				t.Errorf("%s: a run with no survivor judged %v", sp.Name, v)
			}
		}
	}
}

// flagVerdict is the verdict the outcome booleans give — the reference
// Verdict must reproduce, kept here so the two can be compared.
func flagVerdict(rep *Report) (string, bool) {
	switch {
	case rep.Consensus != nil:
		v := fmt.Sprintf("agreement=%v validity=%v", rep.Consensus.Agreement, rep.Consensus.Validity)
		return v, !rep.Consensus.Agreement || !rep.Consensus.Validity
	case rep.Gossip != nil:
		return fmt.Sprintf("complete=%v", rep.Gossip.Complete), !rep.Gossip.Complete
	case rep.Checkpoint != nil:
		return fmt.Sprintf("agreement=%v", rep.Checkpoint.Agreement), !rep.Checkpoint.Agreement
	case rep.Byzantine != nil:
		return fmt.Sprintf("agreement=%v", rep.Byzantine.Agreement), !rep.Byzantine.Agreement
	case rep.Majority != nil:
		return fmt.Sprintf("agreement=%v", rep.Majority.Agreement), !rep.Majority.Agreement
	case rep.Subroutine != nil:
		v := fmt.Sprintf("deciders=%d all_decided=%v", rep.Subroutine.Deciders, rep.Subroutine.AllDecided)
		return v, 5*rep.Subroutine.Deciders < 3*rep.N
	default:
		return "-", false
	}
}

// TestVerdictMatchesOutcomeFlags requires Verdict, which reads only
// Check, to render every run exactly as the outcome booleans do — text
// and violated flag — over the Check suite's runs, every registry row
// at three sizes, and the runs with no survivor. The checkpoint,
// Byzantine, majority and subroutine rows are pinned by no golden
// output; this is where their verdicts are.
func TestVerdictMatchesOutcomeFlags(t *testing.T) {
	seeds, sizes := 8, []int{96, 128, 192}
	if testing.Short() || raceEnabled {
		// The sizes add ≈ 20 s of the O(n³) Dolev–Strong comparator,
		// and the race detector has nothing to find in a verdict.
		seeds, sizes = 2, nil
	}
	sps := checkSpecs(seeds)
	for _, n := range sizes {
		for _, d := range All() {
			tt := n / 6
			if d.Problem == ByzantineConsensus {
				tt = int(math.Sqrt(float64(n)) / 2) // the §7 range, t = O(√n)
			}
			sps = append(sps, d.Spec(n, tt, 1))
		}
	}
	sps = append(sps, allCrashedSpecs()...)
	reps, errs := ExecuteBatch(sps)
	judged, violated := 0, 0
	for i, sp := range sps {
		if errors.Is(errs[i], sim.ErrNoTermination) {
			continue
		}
		if errs[i] != nil {
			t.Fatalf("%s n=%d seed=%#x: %v", sp.Name, sp.N, sp.Seed, errs[i])
		}
		wantText, wantViolated := flagVerdict(reps[i])
		text, v := Verdict(sp, reps[i])
		if text != wantText || v != wantViolated {
			t.Errorf("%s n=%d fault=%v seed=%#x: Verdict %q violated=%v, outcome flags %q violated=%v",
				sp.Name, sp.N, sp.Fault.Kind, sp.Seed, text, v, wantText, wantViolated)
		}
		judged++
		if v {
			violated++
		}
	}
	t.Logf("%d runs judged, %d violated", judged, violated)
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

// BenchmarkCheck times Check alone on finished reports of three
// repository benchmark shapes: serve-cold (few-crashes n=256 t=50 under
// random crashes), serve-heavy (gossip/expander n=128 t=24) and one
// omission lane of the batch-lanes call (gossip/expander n=192 t=36).
// It prices filling the outcome flags from Check after every run.
func BenchmarkCheck(b *testing.B) {
	for _, c := range []struct {
		name string
		sp   Spec
	}{
		{"serve-cold", serveColdSpec(b, 7)},
		{"serve-heavy", MustLookup("gossip/expander").Spec(128, 24, 0x4ea0_0001)},
		{"batch-lanes-omission", linkFaultBatch(b, 0x6a55_1000, 1)[0]},
	} {
		b.Run(c.name, func(b *testing.B) {
			rep, err := Run(c.sp)
			if err != nil {
				b.Fatal(err)
			}
			if vs := Check(c.sp, rep); len(vs) > 0 {
				b.Fatalf("%v", vs)
			}
			b.ReportAllocs()
			for b.Loop() {
				Check(c.sp, rep)
			}
		})
	}
}
