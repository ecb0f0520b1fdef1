package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

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
	if len(rows) < 10 {
		t.Fatalf("only %d registry rows run Sleeper machines; few-crashes and gossip (plain, link-fault and chaos rows), aea and scv should", len(rows))
	}
	return rows
}

// TestQuietSkipParityRegistry pins that fast-forwarding is invisible
// and that every promise behind it is kept: each Sleeper row, under its
// own fault and under no fault, random crashes, a cascade and a
// little-node attack, runs once with QuietUntil and RepeatUntil hidden
// behind the promise auditor, so that every round executes, and then
// visible two ways — observed (quiet spans only: an observed run
// repeats no steady round) and unobserved (quiet and steady spans).
// Every run must give DeepEqual engine results and byte-identical
// report JSON, the observed ones the same observer stream, and the
// auditor must see no machine break a promise.
func TestQuietSkipParityRegistry(t *testing.T) {
	seeds := uint64(8)
	if testing.Short() {
		seeds = 2
	}
	faults := []string{"", "none", "random-crashes:count=8,horizon=40", "cascade:count=8,keep=1", "target-little:count=8"}
	for _, d := range sleeperRows(t) {
		// A gossip run carries ten times the messages of a consensus
		// run, all of them logged twice: two seeds, one per size.
		rowSeeds := seeds
		if strings.HasPrefix(d.Name, "gossip/") {
			rowSeeds = max(seeds/4, 1)
		}
		for _, spelled := range faults {
			for seed := uint64(1); seed <= rowSeeds; seed++ {
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
				tag := fmt.Sprintf("%s fault=%q seed=%d", d.Name, spelled, seed)
				run := func(hide, observed bool) (*Report, *sim.Result, []simtest.Event, []byte) {
					sp := sp
					log := &simtest.EventLog{}
					if observed {
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
				wantRep, wantRes, wantEvents, wantBody := run(true, true)
				for _, way := range []struct {
					name     string
					observed bool
				}{{"observed", true}, {"sequential", false}} {
					gotRep, gotRes, gotEvents, gotBody := run(false, way.observed)
					if !reflect.DeepEqual(wantRes, gotRes) {
						t.Fatalf("%s %s: engine results diverged:\nevery round %+v\n   skipping %+v", tag, way.name, wantRes, gotRes)
					}
					if way.observed && !slices.Equal(wantEvents, gotEvents) {
						t.Fatalf("%s %s: observer streams diverged (%d vs %d events)", tag, way.name, len(wantEvents), len(gotEvents))
					}
					if !reflect.DeepEqual(wantRep, gotRep) || !bytes.Equal(wantBody, gotBody) {
						t.Fatalf("%s %s: reports diverged:\nevery round %s\n   skipping %s", tag, way.name, wantBody, gotBody)
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
// budgeted 5t−1 rounds and floods in two) at most 10 execute — the
// rounds that carry messages, less the probing rounds that repeat the
// one before. The declared crash rounds, most of them inside that
// silent Part 1, are applied in passing and step no machine. The count
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
		if tr.RoundsExecuted > 10 || tr.RoundsExecuted < 6 {
			t.Fatalf("fault seed %d: executed %d of 282 rounds, want 6..10", faultSeed, tr.RoundsExecuted)
		}
	}
}

// TestServeHeavyShapeRepeatsSteadyRounds pins the steady-round
// fast-forward on the serve-heavy shape (gossip/expander n=128 t=24,
// fault-free): of its 154 rounds, nearly all of them local probing, at
// most 12 execute (10 on every seed here). Once the sets stop growing,
// every probing round sends what the last executed one sent, across the
// quiet inquiry and response rounds between two phases and through
// each instance's last round; only Part 2's push round and the halting
// round break the pattern. The count is deterministic per seed.
func TestServeHeavyShapeRepeatsSteadyRounds(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		sp := MustLookup("gossip/expander").Spec(128, 24, 0x4ea0_0000+seed)
		spans := obs.NewSpanTracer()
		sp.Tracer = spans
		rep, err := Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		tr := spans.Trace()
		t.Logf("seed %d: executed %d of %d rounds", seed, tr.RoundsExecuted, tr.Rounds)
		if tr.Rounds != 154 || rep.Metrics.Rounds != 154 {
			t.Fatalf("seed %d: simulated %d rounds (report: %d), want 154", seed, tr.Rounds, rep.Metrics.Rounds)
		}
		if tr.RoundsExecuted > 12 {
			t.Fatalf("seed %d: executed %d of 154 rounds, want at most 12", seed, tr.RoundsExecuted)
		}
	}
}

// roundCount is a RunTracer that sums the rounds the engine stepped.
type roundCount struct{ executed int }

func (*roundCount) StageDuration(obs.Stage, time.Duration) {}

func (*roundCount) RunDone(obs.Engine, obs.Outcome, int, time.Duration) {}

func (c *roundCount) RoundsExecuted(executed, _, _ int) { c.executed += executed }

// BenchmarkRunWarm times one in-process Run of the serve-cold shape over
// cached overlays: materialization, the rounds that are not silent,
// decode. fixed-fault replays fault seed 7 every iteration (the
// benchmark's history); fresh-fault draws a new random-crashes seed per
// iteration, as every serve-cold request does. Both report the rounds
// the engine stepped per run.
func BenchmarkRunWarm(b *testing.B) {
	for _, c := range []struct {
		name  string
		fresh bool
	}{{"fixed-fault", false}, {"fresh-fault", true}} {
		b.Run(c.name, func(b *testing.B) {
			sp := serveColdSpec(b, 7)
			for i := 0; i < 3; i++ {
				if _, err := Run(sp); err != nil {
					b.Fatal(err)
				}
			}
			rounds := &roundCount{}
			sp.Tracer = rounds
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.fresh {
					sp.Fault.Seed = 1_000 + uint64(i)
				}
				if _, err := Run(sp); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rounds.executed)/float64(b.N), "executed-rounds/op")
		})
	}
}

// drainRunSlabs empties the slab pool and returns what it held.
func drainRunSlabs() []*runSlab {
	var slabs []*runSlab
	for {
		s, _ := runSlabs.Get().(*runSlab)
		if s == nil {
			return slabs
		}
		slabs = append(slabs, s)
	}
}

// assertZeroSlab fails unless the slab is all zero throughout the
// capacity of every slice it holds: the few-crashes envelopes and each
// chunk of the gossip slab, whatever its element type. The gossip
// slab's fields are unexported, so they are read by reflection, which
// also means a new kind of chunk is checked without a change here.
func assertZeroSlab(t *testing.T, tag string, s *runSlab) {
	t.Helper()
	if path := nonZero(reflect.ValueOf(s).Elem(), "slab"); path != "" {
		t.Fatalf("%s: pooled slab holds a value at %s", tag, path)
	}
}

// nonZero returns the path of the first value inside v that is not
// zero, or "" if there is none. A slice is read through its capacity;
// a slice of slices is a chunk list, whose chunks are read one by one.
func nonZero(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := nonZero(v.Field(i), path+"."+v.Type().Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Slice {
			for i := 0; i < v.Len(); i++ {
				if p := nonZero(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
					return p
				}
			}
			return ""
		}
		for i, all := 0, v.Slice3(0, v.Cap(), v.Cap()); i < all.Len(); i++ {
			if !all.Index(i).IsZero() {
				return fmt.Sprintf("%s[%d] of %d", path, i, v.Cap())
			}
		}
	default:
		if !v.IsZero() {
			return path
		}
	}
	return ""
}

// TestSendSlabReturnsClean: a slab back in the pool holds no envelope,
// no machine, no topology, no set and no payload — a pooled slab must
// not pin a finished run's topology or payloads, and a run reads the
// memory it cuts as zero machines, nil pairs and empty sets — whether
// it got there from release directly or at the end of a few-crashes or
// a gossip Run.
func TestSendSlabReturnsClean(t *testing.T) {
	top, err := MustLookup("consensus/few-crashes").Spec(64, 12, 0x51ab0004).newBroadcastTopology()
	if err != nil {
		t.Fatal(err)
	}
	drainRunSlabs()
	s := getRunSlab(8, 100)
	for i := range s.few {
		s.few[i].Init(i, top, true)
	}
	for i := range s.envelopes {
		s.envelopes[i] = sim.Envelope{From: i, To: i + 1, Payload: sim.Bit(true)}
	}
	// The walk reaches the machines: the first value it finds is in
	// the first one.
	if path := nonZero(reflect.ValueOf(s).Elem(), "slab"); !strings.HasPrefix(path, "slab.few[0]") {
		t.Fatalf("a filled slab's first value is at %q, want it in slab.few[0]", path)
	}
	s.release()
	assertZeroSlab(t, "after release", s) // no other test runs beside this one, so s is still ours to read
	if again := getRunSlab(4, 40); again == s && (len(again.few) != 4 || len(again.envelopes) != 40) {
		t.Fatalf("reused slab has %d machines and %d envelopes, want 4 and 40", len(again.few), len(again.envelopes))
	}

	for _, sp := range []Spec{serveColdSpec(t, 9), MustLookup("gossip/expander").Spec(96, 16, 0x51ab0002)} {
		for i := 0; i < 3; i++ {
			if _, err := Run(sp); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range drainRunSlabs() {
			assertZeroSlab(t, sp.Name+": after Run", s)
		}
	}
}

// TestObservedRunKeepsItsSlab: a run with an observer never returns its
// slab, because what the observer holds may alias it — a gossip
// snapshot shares its sender's rumor array — and must read the same
// after the run as during it.
func TestObservedRunKeepsItsSlab(t *testing.T) {
	sp := MustLookup("gossip/expander").Spec(96, 16, 0x51ab0003)
	sp.Observer = &simtest.EventLog{}
	drainRunSlabs()
	if _, err := Run(sp); err != nil {
		t.Fatal(err)
	}
	if got := drainRunSlabs(); len(got) != 0 {
		t.Fatalf("an observed run returned %d slabs to the pool", len(got))
	}
}

// TestConcurrentRunsOwnTheirSlabs: concurrent Runs each borrow their
// own slab (a shared one is a data race on every send, so run under
// -race) and report what a lone run reports — few-crashes runs of two
// sizes and other inputs and gossip runs interleaved, so that one
// stack's slab serves the other's next run. Every report a goroutine
// got is checked again once all of them are done: the later runs that
// reused its slab left it DeepEqual to the lone run's.
func TestConcurrentRunsOwnTheirSlabs(t *testing.T) {
	few := MustLookup("consensus/few-crashes").Spec(64, 12, 0x51ab0001)
	fault, err := ParseFault("random-crashes:count=12,horizon=30,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	few.Fault = fault
	other := MustLookup("consensus/few-crashes").Spec(96, 16, 0x51ab0005)
	if other.Fault, err = ParseFault("random-crashes:count=16,horizon=40,seed=4"); err != nil {
		t.Fatal(err)
	}
	for i := range other.BoolInputs {
		other.BoolInputs[i] = i%3 != 0
	}
	gos := MustLookup("gossip/expander").Spec(64, 12, 0x51ab0001)
	gos.Fault = fault
	specs := []Spec{few, gos, other}
	want := make([]*Report, len(specs))
	for i, sp := range specs {
		if want[i], err = Run(sp); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kept := make([]*Report, 0, 9)
			for i := 0; i < 9; i++ {
				k := (g + i) % len(specs)
				got, err := Run(specs[k])
				if err != nil || !reflect.DeepEqual(want[k], got) {
					t.Errorf("concurrent %s run diverged from the lone run (err %v)", specs[k].Name, err)
					return
				}
				kept = append(kept, got)
			}
			for i, got := range kept {
				if k := (g + i) % len(specs); !reflect.DeepEqual(want[k], got) {
					t.Errorf("a kept %s report (n=%d) changed while later runs reused the slabs", specs[k].Name, specs[k].N)
				}
			}
		}()
	}
	wg.Wait()
}
