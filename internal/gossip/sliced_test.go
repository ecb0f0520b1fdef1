package gossip

import (
	"reflect"
	"slices"
	"testing"

	"lineartime/internal/bitset"
	"lineartime/internal/consensus"
	"lineartime/internal/link"
	"lineartime/internal/obs"
	"lineartime/internal/rng"
	"lineartime/internal/sim"
	"lineartime/internal/sim/simtest"
)

// allocCrashPlan is a declarative crash schedule with a pre-built event
// slice, so CrashEvents is allocation-free (the real crash adversaries
// rebuild their slices per call, which would charge the steady-state
// guard for the fault model instead of the engine).
type allocCrashPlan struct{ events []sim.CrashEvent }

func (p allocCrashPlan) FilterSend(round int, from sim.NodeID, out []sim.Envelope) ([]sim.Envelope, bool) {
	for _, e := range p.events {
		if e.Node == from && e.Round == round {
			if e.Keep < 0 || e.Keep >= len(out) {
				return out, true
			}
			return out[:e.Keep], true
		}
	}
	return out, false
}

func (p allocCrashPlan) CrashEvents() []sim.CrashEvent { return p.events }

// allocDelayLink is a stateless payload-independent drop/delay filter
// embedding NoFailures for the empty crash declaration, like
// internal/link's models.
type allocDelayLink struct {
	sim.NoFailures
	d    int
	seed uint64
}

func (h allocDelayLink) FilterLink(round int, env sim.Envelope) sim.Verdict {
	x := h.seed
	x ^= uint64(round) * 0x9e3779b97f4a7c15
	x ^= uint64(env.From) * 0xbf58476d1ce4e5b9
	x ^= uint64(env.To) * 0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	switch p := x % 100; {
	case p < 10:
		return sim.Drop
	case p < 30:
		return sim.DelayBy(1 + int((x>>32)%uint64(h.d)))
	default:
		return sim.Deliver
	}
}

func (h allocDelayLink) MaxDelay() int { return h.d }

// TestRuntimeSlicedGossipSteadyStateAllocs is the sliced gossip path's
// 0-alloc guard: one SlicedGossip machine reset across pooled engine
// runs at full lane width — with per-lane crash schedules, a delaying
// link filter the engine must ask lane by lane, and internal/link's
// omission, delay and partition models, which it compiles into lane
// kernels — must be allocation-free once the arena and the machine's
// buffers have grown to the shape's peak: the kernels' lane arrays, the
// delay ring's buckets, the machine's probe-count buffer and its
// version and merged-lanes tables included.
func TestRuntimeSlicedGossipSteadyStateAllocs(t *testing.T) {
	const n, tBound, lanes, maxDelay = 96, 16, 64, 2
	top, err := consensus.NewTopology(n, tBound, consensus.TopologyOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	faults := make([]sim.LinkFault, lanes)
	for lane := range faults {
		switch lane % 6 {
		case 1:
			faults[lane] = allocCrashPlan{events: []sim.CrashEvent{
				{Node: sim.NodeID(lane % n), Round: lane % 7, Keep: lane%4 - 1},
				{Node: sim.NodeID((lane + 40) % n), Round: lane % 11, Keep: -1},
			}}
		case 2:
			faults[lane] = allocDelayLink{d: maxDelay, seed: uint64(900 + lane)}
		case 3:
			faults[lane] = link.NewOmission(0.03, uint64(900+lane))
		case 4:
			faults[lane] = link.NewDelay(1+lane%maxDelay, uint64(900+lane))
		case 5:
			faults[lane] = link.NewPartition(1+lane%4, 3+lane%7, n/2)
		}
	}
	sys, err := NewSlicedGossip(top, lanes, maxDelay)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.SlicedConfig{
		System:    sys,
		Lanes:     lanes,
		MaxRounds: top.Schedule.Gossip + 8,
		Faults:    faults,
		// A metrics-backed tracer rides along: the guard proves the
		// observability path is allocation-free too.
		Tracer: obs.NewEngineTracer(obs.NewRegistry()),
	}
	rt := sim.NewRuntime()
	var runErr error
	oneRun := func() {
		sys.Reset()
		if _, err := rt.RunSliced(cfg); err != nil {
			runErr = err
		}
	}
	// Two warmup runs grow every buffer — engine arena and the
	// machine's inquiry lists — to the shape's peak.
	oneRun()
	oneRun()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if allocs := testing.AllocsPerRun(5, oneRun); allocs != 0 {
		t.Fatalf("steady-state sliced gossip run allocated %.1f times; want 0", allocs)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
}

// roundLog wraps a SlicedGossip and keeps a copy of its extant and
// completion planes as of the start of every round.
type roundLog struct {
	*SlicedGossip
	last   int
	planes [][]uint64
}

func (l *roundLog) SlicedSend(round, node int, active uint64, out []sim.SlicedMsg) ([]sim.SlicedMsg, uint64) {
	if round != l.last {
		l.last = round
		l.planes = append(l.planes, slices.Concat(l.ext.live, l.comp.live))
	}
	return l.SlicedGossip.SlicedSend(round, node, active, out)
}

// unskipped is the reference machine of the merge-skip test: the same
// SlicedGossip with the version bookkeeping wiped ahead of every call,
// so every snapshot is copied and every merge ORs all n words in every
// lane the message arrived in.
type unskipped struct{ roundLog }

func (u *unskipped) SlicedSend(round, node int, active uint64, out []sim.SlicedMsg) ([]sim.SlicedMsg, uint64) {
	if node < u.L {
		// A version no snapshot ever has: the column is always rewritten.
		c := u.slot(round)*u.L + node
		u.ext.snapVer[c], u.comp.snapVer[c] = ^uint32(0), ^uint32(0)
	}
	return u.roundLog.SlicedSend(round, node, active, out)
}

func (u *unskipped) SlicedDeliver(round, node int, active uint64, inbox []sim.SlicedMsg) uint64 {
	for _, s := range []*laneSets{&u.ext, &u.comp} {
		if node*s.L < len(s.seen) {
			clear(s.seen[node*s.L:][:s.L])
			s.full[node] = 0
		}
	}
	return u.roundLog.SlicedDeliver(round, node, active, inbox)
}

// mixedFaults builds 64 lanes of omission, delay ≤ 2, partition and
// crash-schedule faults, varied by salt.
func mixedFaults(n, lanes int, salt uint64) []sim.LinkFault {
	faults := make([]sim.LinkFault, lanes)
	for lane := range faults {
		seed := salt*1000 + uint64(lane)
		switch lane % 5 {
		case 0:
			faults[lane] = link.NewOmission(0.02+0.02*float64(lane%4), seed)
		case 1:
			faults[lane] = link.NewDelay(2, seed)
		case 2:
			faults[lane] = allocCrashPlan{events: []sim.CrashEvent{
				{Node: sim.NodeID((lane + int(salt)) % n), Round: lane % 9, Keep: lane%3 - 1},
				{Node: sim.NodeID((lane + 17) % n), Round: 3 + lane%20, Keep: -1},
				{Node: sim.NodeID((lane + 31) % n), Round: 0, Keep: 0},
			}}
		case 3:
			faults[lane] = link.NewDelay(1, seed)
		case 4:
			faults[lane] = link.NewPartition(lane%6, 4+lane%9, n/2)
		}
	}
	return faults
}

// laneOutcomes copies the parts of a sliced result the arena will
// overwrite on its next run.
func laneOutcomes(t *testing.T, res *sim.SlicedResult) []sim.LaneResult {
	t.Helper()
	out := make([]sim.LaneResult, len(res.Lanes))
	for i, lr := range res.Lanes {
		if lr.Err != nil || lr.Escaped {
			t.Fatalf("lane %d: err %v, escaped %v", i, lr.Err, lr.Escaped)
		}
		lr.Metrics.PerRoundMessages = slices.Clone(lr.Metrics.PerRoundMessages)
		lr.Crashed = lr.Crashed.Clone()
		lr.HaltedAt = slices.Clone(lr.HaltedAt)
		out[i] = lr
	}
	return out
}

// TestSlicedGossipSkippedMergesAreNoOps pins the merge-skip rule: under
// omission, delays up to 2, partitions and crashes at full lane width,
// the machine that skips re-sent snapshots and the reference that
// merges every message in full hold identical extant and completion
// planes at the start of every round, and produce identical lane
// results; the reference runs the portable loops, the skipping machine
// each path this CPU has (bitset.MergeMasked's vector kernel, the
// vector lane kernels). A skip that dropped a merge which would have
// changed a set shows up as a diverging plane in the round it
// happened.
func TestSlicedGossipSkippedMergesAreNoOps(t *testing.T) {
	const n, tBound, lanes, maxDelay = 72, 12, 64, 2
	top, err := consensus.NewTopology(n, tBound, consensus.TopologyOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	faults := mixedFaults(n, lanes, 1)
	run := func(wrap func(*SlicedGossip) (sim.SlicedSystem, *roundLog)) (*roundLog, []sim.LaneResult) {
		g, err := NewSlicedGossip(top, lanes, maxDelay)
		if err != nil {
			t.Fatal(err)
		}
		sys, log := wrap(g)
		res, err := sim.RunSliced(sim.SlicedConfig{System: sys, Lanes: lanes, MaxRounds: top.Schedule.Gossip + 8, Faults: faults})
		if err != nil {
			t.Fatal(err)
		}
		log.planes = append(log.planes, slices.Concat(g.ext.live, g.comp.live))
		return log, laneOutcomes(t, res)
	}
	paths := simtest.KernelPaths(t)
	bitset.HasVector = false
	want, wantLanes := run(func(g *SlicedGossip) (sim.SlicedSystem, *roundLog) {
		u := &unskipped{roundLog{SlicedGossip: g, last: -1}}
		return u, &u.roundLog
	})
	for _, vector := range paths {
		bitset.HasVector = vector
		got, gotLanes := run(func(g *SlicedGossip) (sim.SlicedSystem, *roundLog) {
			l := &roundLog{SlicedGossip: g, last: -1}
			return l, l
		})
		if len(got.planes) != len(want.planes) || len(got.planes) < top.Schedule.Gossip {
			t.Fatalf("vector=%v: logged %d rounds, reference %d, schedule %d", vector, len(got.planes), len(want.planes), top.Schedule.Gossip)
		}
		for r := range want.planes {
			if !slices.Equal(got.planes[r], want.planes[r]) {
				t.Fatalf("vector=%v: planes diverged from the unskipped reference at the start of round %d", vector, r)
			}
		}
		if !reflect.DeepEqual(gotLanes, wantLanes) {
			t.Fatalf("vector=%v: lane results diverged from the unskipped reference", vector)
		}
	}
}

// bookkeeping lists everything a laneSets remembers besides the ring
// columns' content (which a run never reads before writing).
func (s *laneSets) bookkeeping() []any {
	return []any{s.live, s.grown, s.full, s.ver, s.snapVer, s.seen}
}

// TestSlicedGossipResetForgetsVersions: a machine reset after a run
// carries no snapshot version, merged-lanes record or full-lane mark
// into the next one — its bookkeeping equals a fresh machine's, and two
// runs under different faults on one machine equal the same two runs
// on fresh machines, planes and lane results both.
func TestSlicedGossipResetForgetsVersions(t *testing.T) {
	const n, tBound, lanes, maxDelay = 60, 10, 64, 2
	top, err := consensus.NewTopology(n, tBound, consensus.TopologyOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	run := func(g *SlicedGossip, salt uint64) ([]uint64, []sim.LaneResult) {
		res, err := sim.RunSliced(sim.SlicedConfig{System: g, Lanes: lanes, MaxRounds: top.Schedule.Gossip + 8, Faults: mixedFaults(n, lanes, salt)})
		if err != nil {
			t.Fatal(err)
		}
		return slices.Concat(g.ext.live, g.comp.live), laneOutcomes(t, res)
	}
	fresh := func() *SlicedGossip {
		g, err := NewSlicedGossip(top, lanes, maxDelay)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	reused := fresh()
	for _, salt := range []uint64{2, 3} {
		gotPlanes, gotLanes := run(reused, salt)
		wantPlanes, wantLanes := run(fresh(), salt)
		if !slices.Equal(gotPlanes, wantPlanes) || !reflect.DeepEqual(gotLanes, wantLanes) {
			t.Fatalf("run with fault salt %d on the reused machine diverged from a fresh machine", salt)
		}
		reused.Reset()
		if f := fresh(); !reflect.DeepEqual(reused.ext.bookkeeping(), f.ext.bookkeeping()) ||
			!reflect.DeepEqual(reused.comp.bookkeeping(), f.comp.bookkeeping()) {
			t.Fatalf("Reset after the run with fault salt %d left state a fresh machine does not have", salt)
		}
	}
}

// TestSlicedGossipLaneViewsMatchKnownBits pins the transposed decode
// against the bit-at-a-time one it replaced (known: the lanes in which
// v's extant set has u, tested one lane bit at a time): over random
// extant planes — lanes beyond the configured ones set too — every
// lane's membership words say exactly what known(v, u)&bit says, a word
// boundary inside, at and beyond n included, and no bit at or above n
// is set.
func TestSlicedGossipLaneViewsMatchKnownBits(t *testing.T) {
	r := rng.New(0x7a05)
	for _, n := range []int{1, 40, 63, 64, 65, 192, 200} {
		for _, lanes := range []int{1, 3, 64} {
			g := &SlicedGossip{n: n, lanes: lanes, ext: laneSets{n: n, live: make([]uint64, n*n)}}
			for i := range g.ext.live {
				g.ext.live[i] = r.Uint64()
				if i%3 == 0 {
					g.ext.live[i] &= r.Uint64() & r.Uint64()
				}
			}
			known := func(v, u int) uint64 { return g.ext.live[v*n+u] }
			views := g.LaneViews()
			words := (n + 63) / 64
			for lane := 0; lane < lanes; lane++ {
				bit := uint64(1) << lane
				for v := 0; v < n; v++ {
					row := views.Members(lane, v)
					if len(row) != words {
						t.Fatalf("n=%d lanes=%d: %d member words, want %d", n, lanes, len(row), words)
					}
					for u := 0; u < 64*words; u++ {
						got := row[u>>6]>>(uint(u)&63)&1 != 0
						want := u < n && known(v, u)&bit != 0
						if got != want {
							t.Fatalf("n=%d lanes=%d lane %d: member %d of node %d is %v, the plane says %v", n, lanes, lane, u, v, got, want)
						}
					}
				}
			}
		}
	}
}
