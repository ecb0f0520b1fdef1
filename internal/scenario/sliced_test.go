package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"lineartime/internal/bitset"
	"lineartime/internal/obs"
	"lineartime/internal/sim/simtest"
)

// sameOutcome pins a batch result against its scalar counterpart:
// identical report (DeepEqual) and identical error text.
func sameOutcome(t *testing.T, tag string, wantRep *Report, wantErr error, gotRep *Report, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) ||
		(wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: error diverged:\nscalar %v\nbatch  %v", tag, wantErr, gotErr)
	}
	if !reflect.DeepEqual(wantRep, gotRep) {
		t.Fatalf("%s: report diverged:\nscalar %+v\nbatch  %+v", tag, wantRep, gotRep)
	}
}

// sliceable reports whether ExecuteBatch may put the spec on the
// bit-sliced engine.
func sliceable(sp Spec) bool {
	st, err := sp.validate()
	return err == nil && st.sliced != nil && sp.Fault.Declarative()
}

// TestExecuteBatchMatchesScalarAcrossRegistry runs every registry row —
// protocol stacks, the E12 fault rows, the E13 chaos rows — under
// several seeds through one mixed ExecuteBatch call and pins every
// report byte-identical to the scalar Runner. Sliceable rows get the
// full 64-seed lane width (the 64-for-1 oracle: one sliced run checks
// a word of seeds at once); the rest keep a 3-seed spot check and take
// the scalar fallback inside the same batch.
func TestExecuteBatchMatchesScalarAcrossRegistry(t *testing.T) {
	var specs []Spec
	var tags []string
	for _, d := range All() {
		n, tt := 50, 8
		if d.Problem == ByzantineConsensus {
			tt = 4
		}
		seeds := uint64(3)
		if sliceable(d.Spec(n, tt, 1)) {
			seeds = 64
		}
		for seed := uint64(1); seed <= seeds; seed++ {
			specs = append(specs, d.Spec(n, tt, seed))
			tags = append(tags, fmt.Sprintf("%s seed=%d", d.Name, seed))
		}
	}
	reports, errs := ExecuteBatch(specs)
	if len(reports) != len(specs) || len(errs) != len(specs) {
		t.Fatalf("batch returned %d reports / %d errors for %d specs", len(reports), len(errs), len(specs))
	}
	for i, sp := range specs {
		wantRep, wantErr := Run(sp)
		sameOutcome(t, tags[i], wantRep, wantErr, reports[i], errs[i])
	}
}

// TestRunSeedsMatchesScalarPerLane pins the genuinely sliced path at
// full width: the flooding comparator under every sliceable fault
// model, 64 seeds per model, each lane byte-identical to its scalar
// run, on the lane kernels' portable loops and (where the CPU has
// them) their vector kernels. The per-seed adversaries genuinely
// differ (random crashes, omission patterns, delays), so the lanes
// diverge in crash sets, message counts and rounds while staying
// pinned.
func TestRunSeedsMatchesScalarPerLane(t *testing.T) {
	const n, tt = 48, 8
	faults := []FaultModel{
		{Kind: NoFailures},
		{Kind: CrashSchedule, Schedule: []CrashEvent{
			{Node: 0, Round: 0, Keep: 0},
			{Node: 5, Round: 1, Keep: 2},
			{Node: 9, Round: 3, Keep: -1},
		}},
		{Kind: RandomCrashes, Count: tt, Horizon: tt + 2},
		{Kind: CascadeCrashes, Count: tt, Keep: 1},
		{Kind: TargetLittleCrashes, Count: tt},
		{Kind: OmissionFaults, Rate: 0.15},
		{Kind: PartitionWindow, WindowStart: 1, WindowEnd: 3},
		{Kind: DelayedLinks, Delay: 2},
	}
	base := MustLookup("consensus/flooding").Spec(n, tt, 1)
	for _, f := range faults {
		f := f
		t.Run(f.Kind.String(), func(t *testing.T) {
			sp := base
			sp.Fault = f
			if !sliceable(sp) {
				t.Fatalf("flooding under %v must be sliceable", f.Kind)
			}
			seeds := make([]uint64, 64)
			for i := range seeds {
				seeds[i] = uint64(i + 1)
			}
			paths := simtest.KernelPaths(t)
			wantReps := make([]*Report, len(seeds))
			wantErrs := make([]error, len(seeds))
			for i, seed := range seeds {
				lane := sp
				lane.Seed = seed
				wantReps[i], wantErrs[i] = Run(lane)
			}
			for _, vector := range paths {
				bitset.HasVector = vector
				reports, errs := RunSeeds(sp, seeds)
				for i, seed := range seeds {
					sameOutcome(t, fmt.Sprintf("vector=%v seed %d", vector, seed), wantReps[i], wantErrs[i], reports[i], errs[i])
				}
			}
		})
	}
}

// TestGossipBatchMatchesScalarPerLane pins the sliced gossip path at
// full width: every sliceable gossip registry row (the chaos row
// included), 64 lanes sharing the row's topology seed with per-lane
// fault models cycling through the whole declarative template —
// mixed-kind groups, so crash schedules, omission patterns, partitions
// and delays ride one engine run together — each lane byte-identical
// to its scalar run, on the lane kernels' and set merge's portable
// loops and (where the CPU has them) their vector kernels.
func TestGossipBatchMatchesScalarPerLane(t *testing.T) {
	const n, tt = 60, 10
	template := []FaultModel{
		{Kind: NoFailures},
		{Kind: CrashSchedule, Schedule: []CrashEvent{
			{Node: 0, Round: 0, Keep: 0},
			{Node: 5, Round: 1, Keep: 2},
			{Node: 9, Round: 3, Keep: -1},
		}},
		{Kind: RandomCrashes, Count: tt, Horizon: tt + 2},
		{Kind: CascadeCrashes, Count: tt, Keep: 1},
		{Kind: TargetLittleCrashes, Count: tt},
		{Kind: OmissionFaults, Rate: 0.15},
		{Kind: PartitionWindow, WindowStart: 1, WindowEnd: 3},
		{Kind: DelayedLinks, Delay: 2},
	}
	rows := []string{
		"gossip/expander",
		"gossip/expander/omission",
		"gossip/expander/delay",
		"gossip/expander/chaos",
	}
	for _, name := range rows {
		t.Run(name, func(t *testing.T) {
			base := MustLookup(name).Spec(n, tt, 1)
			if !sliceable(base) {
				t.Fatalf("%s must be sliceable", name)
			}
			specs := make([]Spec, 64)
			for i := range specs {
				specs[i] = base
				f := template[i%len(template)]
				// Distinct adversary seeds keep the lanes genuinely
				// divergent while the topology seed stays shared.
				f.Seed = uint64(900 + i)
				specs[i].Fault = f
				if !sliceable(specs[i]) || keyOf(specs[i]) != keyOf(base) {
					t.Fatalf("lane %d must share the row's sliced group", i)
				}
			}
			paths := simtest.KernelPaths(t)
			wantReps := make([]*Report, len(specs))
			wantErrs := make([]error, len(specs))
			for i, sp := range specs {
				wantReps[i], wantErrs[i] = Run(sp)
			}
			for _, vector := range paths {
				bitset.HasVector = vector
				reports, errs := ExecuteBatch(specs)
				for i, sp := range specs {
					sameOutcome(t, fmt.Sprintf("vector=%v lane %d (%v)", vector, i, sp.Fault.Kind), wantReps[i], wantErrs[i], reports[i], errs[i])
				}
			}
		})
	}
}

// TestRunSeedsSingleSeed pins the degenerate batch: one seed through
// RunSeeds is exactly Run.
func TestRunSeedsSingleSeed(t *testing.T) {
	sp := MustLookup("consensus/flooding").Spec(30, 5, 7)
	sp.Fault = FaultModel{Kind: RandomCrashes, Count: 5, Horizon: 7}
	reports, errs := RunSeeds(sp, []uint64{7})
	wantRep, wantErr := Run(sp)
	sameOutcome(t, "seeds=1", wantRep, wantErr, reports[0], errs[0])
}

// TestExecuteBatchInvalidSpec: a spec that fails Run's preconditions
// must surface Run's exact error from the batch, not a batch-specific
// one.
func TestExecuteBatchInvalidSpec(t *testing.T) {
	good := MustLookup("consensus/flooding").Spec(24, 4, 1)
	bad := good
	bad.Fault = FaultModel{Kind: DelayedLinks, Delay: -1}
	// A size Run rejects before it builds anything.
	empty := good
	empty.N = 0
	// A round budget beyond the bound, and inputs of the wrong length.
	long := good
	long.RoundSlack = 1 << 40
	short := good
	short.BoolInputs = short.BoolInputs[:3]
	reports, errs := ExecuteBatch([]Spec{good, bad, empty, long, short})
	if errs[0] != nil || reports[0] == nil {
		t.Fatalf("good spec failed: %v", errs[0])
	}
	for i, sp := range []Spec{bad, empty, long, short} {
		_, wantErr := Run(sp)
		if got := errs[i+1]; wantErr == nil || got == nil || wantErr.Error() != got.Error() || reports[i+1] != nil {
			t.Fatalf("bad spec %d diverged: scalar %v, batch %v", i, wantErr, got)
		}
	}
}

// engineLog is a RunTracer that records which engines reported a run.
type engineLog struct{ engines []obs.Engine }

func (*engineLog) StageDuration(obs.Stage, time.Duration) {}

func (*engineLog) RoundsExecuted(int, int, int) {}

func (l *engineLog) RunDone(e obs.Engine, _ obs.Outcome, _ int, _ time.Duration) {
	l.engines = append(l.engines, e)
}

// TestGossipBatchLoneTailRunsScalar pins the lone-lane rule per chunk,
// not per group: a same-shape gossip group of 64k+1 specs fills k
// sliced runs and its one-spec tail takes the scalar path (a 1-lane
// word run pays the n² plane setup for a single replica). Every chunk
// reports through its first spec's tracer, so the tail spec's own
// tracer tells which engine ran it. Results equal scalar either way.
func TestGossipBatchLoneTailRunsScalar(t *testing.T) {
	const n, tt = 40, 6
	base := MustLookup("gossip/expander").Spec(n, tt, 3)
	for _, count := range []int{65, 129} {
		specs := make([]Spec, count)
		logs := make([]*engineLog, count)
		for i := range specs {
			specs[i] = base
			specs[i].Fault = FaultModel{Kind: OmissionFaults, Rate: 0.1, Seed: uint64(50 + i)}
			logs[i] = &engineLog{}
			specs[i].Tracer = logs[i]
			if keyOf(specs[i]) != keyOf(base) {
				t.Fatalf("spec %d left the group", i)
			}
		}
		reports, errs := ExecuteBatch(specs)
		for i, sp := range specs {
			sp.Tracer = nil
			wantRep, wantErr := Run(sp)
			sameOutcome(t, fmt.Sprintf("%d specs, spec %d", count, i), wantRep, wantErr, reports[i], errs[i])
		}
		for i, l := range logs {
			var want []obs.Engine
			switch {
			case i == count-1:
				want = []obs.Engine{obs.EngineSequential}
			case i%64 == 0:
				want = []obs.Engine{obs.EngineSliced}
			}
			if !reflect.DeepEqual(l.engines, want) {
				t.Fatalf("%d specs: spec %d's tracer saw engines %v, want %v", count, i, l.engines, want)
			}
		}
	}
}

// TestGossipOutcomeSharesEqualViews pins the shared lane views against
// the decode that gave every survivor its own map: nodes whose views
// are equal — same members and same rumor values — hold one map,
// nodes that differ in either do not, crashed nodes stay nil, and the
// outcome is DeepEqual and JSON-byte-identical to the unshared one.
func TestGossipOutcomeSharesEqualViews(t *testing.T) {
	const n = 70
	crashed := bitset.New(n)
	crashed.Add(3)
	crashed.Add(40)
	// Three member sets: everyone (the complete view), the survivors
	// only, and a partial one that misses survivor 69 — so the run is
	// incomplete. Node 11 has the complete members but holds a different
	// rumor for node 5.
	full, alive, partial := bitset.New(n), bitset.New(n), bitset.New(n)
	for j := 0; j < n; j++ {
		full.Add(j)
		if !crashed.Contains(j) {
			alive.Add(j)
			if j != 69 {
				partial.Add(j)
			}
		}
	}
	known := func(i int) *bitset.Set {
		switch {
		case i%5 == 1:
			return alive
		case i%7 == 2:
			return partial
		default:
			return full
		}
	}
	rumor := func(i, j int) uint64 {
		if i == 11 && j == 5 {
			return 999
		}
		return uint64(1000 + j)
	}

	want := &GossipOutcome{Extant: make([]map[int]uint64, n)}
	for i := 0; i < n; i++ {
		if crashed.Contains(i) {
			continue
		}
		view := make(map[int]uint64)
		known(i).ForEach(func(j int) { view[j] = rumor(i, j) })
		want.Extant[i] = view
	}
	// Each node's rumor array, as an extant set keeps it: the rumor at
	// every member, zero elsewhere, and a fresh slice per call.
	view := func(i int) (*bitset.Set, []uint64) {
		rumors := make([]uint64, n)
		known(i).ForEach(func(j int) { rumors[j] = rumor(i, j) })
		return known(i), rumors
	}
	got := gossipOutcome(n, crashed, view, false)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("shared outcome diverged from the unshared decode")
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("shared outcome encodes differently from the unshared decode")
	}

	distinct := make(map[uintptr]int)
	for i, view := range got.Extant {
		if crashed.Contains(i) {
			if view != nil {
				t.Fatalf("crashed node %d has a view", i)
			}
			continue
		}
		p := reflect.ValueOf(view).Pointer()
		if first, ok := distinct[p]; ok {
			if !reflect.DeepEqual(got.Extant[first], view) || !known(first).Equal(known(i)) {
				t.Fatalf("nodes %d and %d share a map but not a view", first, i)
			}
		} else {
			distinct[p] = i
		}
	}
	// full, full-with-999, alive, partial.
	if len(distinct) != 4 {
		t.Fatalf("%d distinct maps for 4 distinct views", len(distinct))
	}

	// All survivors complete: one view, not n.
	ids := make([]uint64, n)
	alive.ForEach(func(j int) { ids[j] = uint64(j) })
	complete := gossipOutcome(n, crashed, func(int) (*bitset.Set, []uint64) { return alive, slices.Clone(ids) }, false)
	first := reflect.ValueOf(complete.Extant[0]).Pointer()
	for i, view := range complete.Extant {
		if !crashed.Contains(i) && reflect.ValueOf(view).Pointer() != first {
			t.Fatalf("node %d of a complete run has its own map", i)
		}
	}
}

// TestGossipOutcomeNodeIndependentRumors: a caller whose rumor values
// depend on the member alone may say so, and gets the outcome the
// comparing path computes — DeepEqual, JSON-byte-equal, and sharing the
// same maps — on complete, incomplete and crashed-node inputs.
func TestGossipOutcomeNodeIndependentRumors(t *testing.T) {
	const n = 70
	full, most, few := bitset.New(n), bitset.New(n), bitset.New(n)
	for j := 0; j < n; j++ {
		full.Add(j)
		if j != 69 {
			most.Add(j)
		}
		if j%4 == 0 {
			few.Add(j)
		}
	}
	// One rumor table for every node, set at non-members too, as the
	// sliced decode passes the spec's rumors.
	rumors := make([]uint64, n)
	for j := range rumors {
		rumors[j] = uint64(1000 + j*j)
	}
	cases := []struct {
		name    string
		crashed []int
		known   func(i int) *bitset.Set
	}{
		{"complete", nil, func(int) *bitset.Set { return full }},
		{"incomplete", nil, func(i int) *bitset.Set { return []*bitset.Set{full, most, few}[i%3] }},
		{"crashed nodes", []int{0, 3, 40, 69}, func(i int) *bitset.Set { return []*bitset.Set{most, full}[i%2] }},
		{"everyone crashed", []int{0, 1, 2}, nil},
	}
	for _, c := range cases {
		size := n
		if c.known == nil {
			size = len(c.crashed)
		}
		crashed := bitset.New(size)
		for _, i := range c.crashed {
			crashed.Add(i)
		}
		// Each call gets its own reused Set, as the sliced decode hands
		// gossipOutcome: the outcome must not alias it.
		load := func() func(i int) (*bitset.Set, []uint64) {
			scratch := bitset.New(size)
			return func(i int) (*bitset.Set, []uint64) {
				scratch.Clear()
				scratch.UnionWith(c.known(i))
				return scratch, rumors
			}
		}
		want := gossipOutcome(size, crashed, load(), false)
		got := gossipOutcome(size, crashed, load(), true)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: node-independent outcome diverged from the comparing path", c.name)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Fatalf("%s: node-independent outcome encodes differently", c.name)
		}
		for i := range want.Extant {
			for k := range want.Extant {
				shared := func(o *GossipOutcome) bool {
					return o.Extant[i] != nil && reflect.ValueOf(o.Extant[i]).Pointer() == reflect.ValueOf(o.Extant[k]).Pointer()
				}
				if shared(want) != shared(got) {
					t.Fatalf("%s: nodes %d and %d share a map on one path only", c.name, i, k)
				}
			}
		}
	}
}
