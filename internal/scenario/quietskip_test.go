package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"lineartime/internal/obs"
	"lineartime/internal/sim"
	"lineartime/internal/sim/simtest"
)

// sleeperRows returns the registry rows whose machines are all
// sim.Sleepers — the rows the run loop may fast-forward.
func sleeperRows(t *testing.T) []Definition {
	t.Helper()
	var rows []Definition
	for _, d := range All() {
		sp := d.Spec(30, 5, 1)
		st, _ := stackOf(sp)
		sys, err := st.build(sp)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		sys.slab.release()
		if _, ok := sys.ps[0].(sim.Sleeper); ok {
			rows = append(rows, d)
		}
	}
	if len(rows) < 6 {
		t.Fatalf("only %d registry rows run Sleeper machines; few-crashes (plain, link-fault and chaos rows), aea and scv should", len(rows))
	}
	return rows
}

// TestQuietSkipParityRegistry pins that fast-forwarding is invisible
// and that every promise behind it is kept: each Sleeper row, under its
// own fault and under no fault, random crashes, a cascade and a
// little-node attack, runs once as is and once with QuietUntil hidden
// behind the promise auditor, so that every round executes. The two
// runs must give DeepEqual engine results, the same observer stream
// and byte-identical report JSON — on the sequential engine and on the
// pool (run under -race) — and the auditor must see no machine send or
// halt inside a span it promised to be quiet in.
func TestQuietSkipParityRegistry(t *testing.T) {
	seeds := uint64(8)
	if testing.Short() {
		seeds = 2
	}
	faults := []string{"", "none", "random-crashes:count=8,horizon=40", "cascade:count=8,keep=1", "target-little:count=8"}
	for _, d := range sleeperRows(t) {
		for _, spelled := range faults {
			for seed := uint64(1); seed <= seeds; seed++ {
				n, tt := 48, 8
				if seed%2 == 0 {
					n, tt = 90, 17
				}
				sp := d.Spec(n, tt, 0x51ee9000+seed)
				if spelled != "" {
					fault, err := ParseFault(spelled)
					if err != nil {
						t.Fatal(err)
					}
					sp.Fault = fault
				}
				for _, parallel := range []bool{false, true} {
					tag := fmt.Sprintf("%s fault=%q seed=%d parallel=%v", d.Name, spelled, seed, parallel)
					run := func(hide bool) (*Report, *sim.Result, []string, []byte) {
						sp := sp
						log := &simtest.EventLog{}
						if parallel {
							sp.Exec = Parallelism{Enabled: true, Workers: 3}
						} else {
							sp.Observer = log
						}
						var wrap func([]sim.Protocol) []sim.Protocol
						check := func() error { return nil }
						if hide {
							wrap = func(ps []sim.Protocol) []sim.Protocol {
								ps, check = simtest.Hide(ps)
								return ps
							}
						}
						rep, res, err := runSpec(sp, wrap)
						if err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
						if err := check(); err != nil {
							t.Fatalf("%s: broken promise: %v", tag, err)
						}
						body, err := json.Marshal(rep)
						if err != nil {
							t.Fatal(err)
						}
						return rep, res, log.Events, body
					}
					wantRep, wantRes, wantEvents, wantBody := run(true)
					gotRep, gotRes, gotEvents, gotBody := run(false)
					if !reflect.DeepEqual(wantRes, gotRes) {
						t.Fatalf("%s: engine results diverged:\nevery round %+v\n   skipping %+v", tag, wantRes, gotRes)
					}
					if !reflect.DeepEqual(wantEvents, gotEvents) {
						t.Fatalf("%s: observer streams diverged (%d vs %d events)", tag, len(wantEvents), len(gotEvents))
					}
					if !reflect.DeepEqual(wantRep, gotRep) || !bytes.Equal(wantBody, gotBody) {
						t.Fatalf("%s: reports diverged:\nevery round %s\n   skipping %s", tag, wantBody, gotBody)
					}
				}
			}
		}
	}
}

// serveColdSpec is the repository benchmark's serve-cold request shape.
func serveColdSpec(t testing.TB, faultSeed int) Spec {
	t.Helper()
	sp := MustLookup("consensus/few-crashes").Spec(256, 50, 0x5eed0001)
	fault, err := ParseFault(fmt.Sprintf("random-crashes:count=50,horizon=64,seed=%d", faultSeed))
	if err != nil {
		t.Fatal(err)
	}
	sp.Fault = fault
	return sp
}

// TestServeColdShapeSkipsSilence pins the point of the fast-forward on
// the serve-cold shape: of the 282 simulated rounds (Part 1 of AEA is
// budgeted 5t−1 rounds and floods in two) at most 60 execute — the
// rounds that carry messages plus the declared crash rounds. The count
// is deterministic per seed.
func TestServeColdShapeSkipsSilence(t *testing.T) {
	for faultSeed := 1; faultSeed <= 4; faultSeed++ {
		sp := serveColdSpec(t, faultSeed)
		spans := obs.NewSpanTracer()
		sp.Tracer = spans
		rep, err := Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		tr := spans.Trace()
		t.Logf("fault seed %d: executed %d of %d rounds", faultSeed, tr.RoundsExecuted, tr.Rounds)
		if tr.Rounds != 282 || rep.Metrics.Rounds != 282 {
			t.Fatalf("fault seed %d: simulated %d rounds (report: %d), want 282", faultSeed, tr.Rounds, rep.Metrics.Rounds)
		}
		if tr.RoundsExecuted > 60 || tr.RoundsExecuted < 15 {
			t.Fatalf("fault seed %d: executed %d of 282 rounds, want 15..60", faultSeed, tr.RoundsExecuted)
		}
	}
}

// BenchmarkRunWarm times one in-process Run of the serve-cold shape over
// cached overlays: materialization, the rounds that are not silent,
// decode.
func BenchmarkRunWarm(b *testing.B) {
	sp := serveColdSpec(b, 7)
	for i := 0; i < 3; i++ {
		if _, err := Run(sp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(sp); err != nil {
			b.Fatal(err)
		}
	}
}

// drainSendSlabs empties the slab pool and returns what it held.
func drainSendSlabs() []*sendSlab {
	var slabs []*sendSlab
	for {
		s, _ := sendSlabs.Get().(*sendSlab)
		if s == nil {
			return slabs
		}
		slabs = append(slabs, s)
	}
}

// TestSendSlabReturnsClean: a slab back in the pool holds no envelope —
// a pooled slab must not pin a finished run's payloads — whether it got
// there from release directly or at the end of a Run.
func TestSendSlabReturnsClean(t *testing.T) {
	assertZero := func(tag string, s *sendSlab) {
		t.Helper()
		for i, env := range s.buf[:cap(s.buf)] {
			if env != (sim.Envelope{}) {
				t.Fatalf("%s: pooled slab holds %+v at %d of %d", tag, env, i, cap(s.buf))
			}
		}
	}
	drainSendSlabs()
	s := getSendSlab(100)
	for i := range s.buf {
		s.buf[i] = sim.Envelope{From: i, To: i + 1, Payload: sim.Bit(true)}
	}
	s.release()
	assertZero("after release", s) // no other test runs beside this one, so s is still ours to read
	if again := getSendSlab(40); again == s && len(again.buf) != 40 {
		t.Fatalf("reused slab has length %d, want 40", len(again.buf))
	}

	sp := serveColdSpec(t, 9)
	for i := 0; i < 3; i++ {
		if _, err := Run(sp); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range drainSendSlabs() {
		assertZero("after Run", s)
	}
}

// TestConcurrentRunsOwnTheirSlabs: concurrent Runs each borrow their
// own slab (a shared one is a data race on every send, so run under
// -race) and report what a lone run reports.
func TestConcurrentRunsOwnTheirSlabs(t *testing.T) {
	sp := MustLookup("consensus/few-crashes").Spec(64, 12, 0x51ab0001)
	fault, err := ParseFault("random-crashes:count=12,horizon=30,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	sp.Fault = fault
	want, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				got, err := Run(sp)
				if err != nil || !reflect.DeepEqual(want, got) {
					t.Errorf("concurrent run diverged from the lone run (err %v)", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
