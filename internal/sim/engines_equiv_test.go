package sim

import (
	"fmt"
	"math/bits"
	"reflect"
	"sort"
	"testing"

	"lineartime/internal/bitset"
	"lineartime/internal/rng"
)

// Engine equivalence: the CSR scratch-buffer sequential engine and a
// reference reimplementation of the original engine (per-round inbox
// allocation, sort.Slice ordering, map-based port buffers) must produce
// byte-identical Results — same
// metrics including the per-round and per-part series, same crash
// sets, same HaltedAt, same protocol end states — on randomized
// systems across multi-port, single-port, crash and Byzantine configs.

// fuzzPayload has a size derived from protocol state so the bit
// accounting is exercised beyond the 1-bit fast path.
type fuzzPayload struct{ bits int }

func (p fuzzPayload) SizeBits() int { return p.bits }

// fuzzNode is a randomized protocol: traffic pattern, poll choices and
// halting depend on a per-node PRNG and on everything received so far,
// so any divergence between engines cascades into the transcript. With
// mixed set, sends alternate between the engine's one-bit payload kinds
// (Bit, Inquiry, Probe), which share boxes, and the protocol-defined
// fuzzPayload, boxed per message; Deliver folds each payload's concrete
// value into the accumulator, so a delivery that loses a bit of payload
// content (not just its size) diverges the transcript.
type fuzzNode struct {
	id, n, horizon int
	single         bool
	mixed          bool
	r              *rng.SplitMix64
	acc            uint64
	rounds         int
	out            []Envelope
}

func newFuzzNode(id, n, horizon int, single, mixed bool, seed uint64) *fuzzNode {
	return &fuzzNode{
		id: id, n: n, horizon: horizon + id%5, single: single, mixed: mixed,
		r:   rng.New(seed ^ uint64(id)*0x9e3779b97f4a7c15),
		acc: uint64(id) + 1,
	}
}

func (f *fuzzNode) target() NodeID {
	to := f.r.Intn(f.n - 1)
	if to >= f.id {
		to++
	}
	return to
}

func (f *fuzzNode) payload() Payload {
	if f.mixed {
		switch f.r.Intn(5) {
		case 0:
			return Bit(f.acc&1 != 0)
		case 1:
			return Inquiry{}
		case 2:
			return Probe{Rumor: Bit(f.acc&2 != 0)}
		}
	}
	return fuzzPayload{bits: 1 + int((f.acc>>3)%7)}
}

func (f *fuzzNode) Send(round int) []Envelope {
	f.out = f.out[:0]
	fanout := f.r.Intn(4)
	if f.single && fanout > 1 {
		fanout = 1
	}
	for k := 0; k < fanout; k++ {
		f.out = append(f.out, Envelope{
			From:    f.id,
			To:      f.target(),
			Payload: f.payload(),
		})
	}
	return f.out
}

func (f *fuzzNode) Poll(round int) (NodeID, bool) {
	if f.r.Intn(4) == 0 {
		return 0, false
	}
	return f.target(), true
}

func bitValue(b Bit) uint64 {
	if b {
		return 1
	}
	return 0
}

// payloadFingerprint hashes a payload's concrete type and value, so the
// equivalence accumulator distinguishes Bit(true) from Bit(false) and a
// Probe from an Inquiry, not just their sizes.
func payloadFingerprint(p Payload) uint64 {
	switch v := p.(type) {
	case Bit:
		return 0x11 + bitValue(v)
	case Inquiry:
		return 0x23
	case Probe:
		return 0x31 + bitValue(v.Rumor)
	case fuzzPayload:
		return 0x47 ^ uint64(v.bits)<<8
	default:
		return 0x59
	}
}

func (f *fuzzNode) Deliver(round int, inbox []Envelope) {
	for _, env := range inbox {
		f.acc = f.acc*0x100000001b3 ^ uint64(env.From)<<17 ^ uint64(env.Payload.SizeBits())
		f.acc ^= payloadFingerprint(env.Payload) << 7
	}
	f.rounds++
}

func (f *fuzzNode) Halted() bool { return f.rounds >= f.horizon }

// multiCrash is a stateless deterministic crash schedule.
type multiCrash struct {
	rounds map[NodeID]int
	keeps  map[NodeID]int
}

func newMultiCrash(n, f, horizon int, seed uint64) multiCrash {
	r := rng.New(seed)
	mc := multiCrash{rounds: map[NodeID]int{}, keeps: map[NodeID]int{}}
	for len(mc.rounds) < f {
		node := r.Intn(n)
		if _, dup := mc.rounds[node]; dup {
			continue
		}
		mc.rounds[node] = r.Intn(horizon)
		mc.keeps[node] = r.Intn(3) - 1 // -1 keeps all
	}
	return mc
}

func (m multiCrash) FilterSend(round int, from NodeID, out []Envelope) ([]Envelope, bool) {
	if r, ok := m.rounds[from]; ok && r == round {
		if k := m.keeps[from]; k >= 0 && k < len(out) {
			return out[:k], true
		}
		return out, true
	}
	return out, false
}

// fuzzLink is a randomized link fault layered over an optional crash
// schedule: every surviving envelope is independently dropped, delayed
// 1..d rounds, or delivered, decided by a stateless hash of the link
// coordinates (so verdicts are identical regardless of evaluation
// order or engine). It exercises the full LinkFault surface — crash,
// omission and delay at once.
type fuzzLink struct {
	crash    multiCrash
	useCrash bool
	d        int
	seed     uint64
}

func (f fuzzLink) FilterSend(round int, from NodeID, out []Envelope) ([]Envelope, bool) {
	if f.useCrash {
		return f.crash.FilterSend(round, from, out)
	}
	return out, false
}

func (f fuzzLink) FilterLink(round int, env Envelope) Verdict {
	x := f.seed
	x ^= uint64(round) * 0x9e3779b97f4a7c15
	x ^= uint64(env.From) * 0xbf58476d1ce4e5b9
	x ^= uint64(env.To) * 0x94d049bb133111eb
	x ^= uint64(env.Payload.SizeBits()) * 0xd6e8feb86659fd93
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	switch p := x % 100; {
	case p < 12:
		return Drop
	case p < 35:
		return DelayBy(1 + int((x>>32)%uint64(f.d)))
	default:
		return Deliver
	}
}

func (f fuzzLink) MaxDelay() int { return f.d }

// referenceRun reimplements the pre-refactor engine verbatim: fresh
// [][]Envelope inboxes each round, per-node sort, map-based
// single-port buffers, per-sender label lookups — extended with a
// naive map-of-slices rendering of the link layer (pending arrivals
// keyed by round) as the oracle for omission/partition/delay
// semantics. Inboxes sort stably by sender, the tie-break the engines
// guarantee (chronological within a sender).
func referenceRun(cfg Config) (*Result, error) {
	n := len(cfg.Protocols)
	adv := cfg.Fault
	if adv == nil {
		adv = NoFailures{}
	}
	var filter LinkFilter
	if lf, ok := adv.(LinkFilter); ok {
		filter = lf
	}
	// pending holds delayed envelopes keyed by arrival round — the
	// naive rendering of the engines' delay ring.
	pending := make(map[int][]Envelope)
	isByz := func(id NodeID) bool { return cfg.Byzantine != nil && cfg.Byzantine.Contains(id) }
	crashed := bitset.New(n)
	haltedAt := make([]int, n)
	for i := range haltedAt {
		haltedAt[i] = -1
	}
	alive := func(id NodeID) bool { return !crashed.Contains(id) && haltedAt[id] < 0 }
	var metrics Metrics
	var ports []map[NodeID][]Envelope
	if cfg.SinglePort {
		ports = make([]map[NodeID][]Envelope, n)
		for i := range ports {
			ports[i] = make(map[NodeID][]Envelope)
		}
	}
	count := func(r int, from NodeID, deliver []Envelope) {
		for len(metrics.PerRoundMessages) <= r {
			metrics.PerRoundMessages = append(metrics.PerRoundMessages, 0)
		}
		var label string
		if cfg.PartLabeler != nil && len(deliver) > 0 {
			label = cfg.PartLabeler(r)
			if metrics.PerPart == nil {
				metrics.PerPart = make(map[string]int64)
			}
		}
		for _, env := range deliver {
			bits := int64(env.Payload.SizeBits())
			if isByz(from) {
				metrics.ByzMessages++
				metrics.ByzBits += bits
			} else {
				metrics.Messages++
				metrics.Bits += bits
				metrics.PerRoundMessages[r]++
				if label != "" {
					metrics.PerPart[label]++
				}
			}
		}
	}
	allDone := func() bool {
		for id := 0; id < n; id++ {
			if alive(id) && !isByz(id) {
				return false
			}
		}
		return true
	}
	finish := func(r int) *Result {
		metrics.Rounds = r
		return &Result{Metrics: metrics, Crashed: crashed, HaltedAt: haltedAt}
	}
	for r := 0; r < cfg.MaxRounds; r++ {
		if allDone() {
			return finish(r), nil
		}
		inboxes := make([][]Envelope, n)
		var crashedNow []NodeID
		var deposits [][]Envelope
		if arrivals := pending[r]; len(arrivals) > 0 {
			if cfg.SinglePort {
				deposits = append(deposits, arrivals)
			} else {
				for _, env := range arrivals {
					inboxes[env.To] = append(inboxes[env.To], env)
				}
			}
			delete(pending, r)
		}
		for id := 0; id < n; id++ {
			if !alive(id) {
				continue
			}
			out := cfg.Protocols[id].Send(r)
			deliver, crash := adv.FilterSend(r, id, out)
			if crash {
				crashedNow = append(crashedNow, id)
			}
			count(r, id, deliver)
			if filter != nil {
				kept := deliver[:0:0]
				for _, env := range deliver {
					switch v := filter.FilterLink(r, env); {
					case v == Deliver:
						kept = append(kept, env)
					case v == Drop:
					default:
						arrival := r + int(v)
						pending[arrival] = append(pending[arrival], env)
					}
				}
				deliver = kept
			}
			if cfg.SinglePort {
				deposits = append(deposits, append([]Envelope(nil), deliver...))
			} else {
				for _, env := range deliver {
					inboxes[env.To] = append(inboxes[env.To], env)
				}
			}
		}
		for _, id := range crashedNow {
			crashed.Add(id)
		}
		if cfg.SinglePort {
			for _, batch := range deposits {
				for _, env := range batch {
					if crashed.Contains(env.To) || haltedAt[env.To] >= 0 {
						continue
					}
					ports[env.To][env.From] = append(ports[env.To][env.From], env)
				}
			}
			for id := 0; id < n; id++ {
				if !alive(id) {
					continue
				}
				if from, wants := cfg.Protocols[id].(Poller).Poll(r); wants {
					if buf := ports[id][from]; len(buf) > 0 {
						inboxes[id] = []Envelope{buf[0]}
						if len(buf) == 1 {
							delete(ports[id], from)
						} else {
							ports[id][from] = buf[1:]
						}
					}
				}
			}
		}
		for id := 0; id < n; id++ {
			if !alive(id) {
				continue
			}
			inbox := inboxes[id]
			sort.SliceStable(inbox, func(a, b int) bool { return inbox[a].From < inbox[b].From })
			cfg.Protocols[id].Deliver(r, inbox)
			if cfg.Protocols[id].Halted() {
				haltedAt[id] = r
			}
		}
	}
	if allDone() {
		return finish(cfg.MaxRounds), nil
	}
	return nil, ErrNoTermination
}

// --- Bit-sliced engine equivalence -----------------------------------
//
// The sliced engine must reproduce, per lane, exactly the Result the
// scalar engine produces for that lane's fault layer. The protocol
// under test is a self-contained flooding machine (a mirror of
// consensus.Flooding, re-stated here because package sim cannot import
// internal/consensus): scalar consFlood per node, lane-parallel
// wordFlood for the sliced engine.

type consFlood struct {
	id, n, t  int
	candidate bool
	pending   bool
	flooded   bool
	decided   bool
	decision  bool
	halted    bool
	out       []Envelope
}

func (f *consFlood) Send(round int) []Envelope {
	if round >= f.t+2 || !f.pending || f.flooded {
		return nil
	}
	f.pending = false
	f.flooded = true
	f.out = f.out[:0]
	for to := 0; to < f.n; to++ {
		if to != f.id {
			f.out = append(f.out, Envelope{From: f.id, To: to, Payload: Bit(true)})
		}
	}
	return f.out
}

func (f *consFlood) Deliver(round int, inbox []Envelope) {
	if !f.candidate {
		for _, env := range inbox {
			if b, ok := env.Payload.(Bit); ok && bool(b) {
				f.candidate = true
				f.pending = true
				break
			}
		}
	}
	if round == f.t+1 {
		f.decided = true
		f.decision = f.candidate
		f.halted = true
	}
}

func (f *consFlood) Halted() bool { return f.halted }

// wordFlood is the lane-parallel mirror of consFlood.
type wordFlood struct {
	n, t int
	all  uint64

	candidate []uint64
	pending   []uint64
	flooded   []uint64
	decided   []uint64
	decision  []uint64
	halted    []uint64
}

func newWordFlood(n, t, lanes int, inputs []bool) *wordFlood {
	w := &wordFlood{
		n: n, t: t, all: bitset.LaneMask(lanes),
		candidate: make([]uint64, n),
		pending:   make([]uint64, n),
		flooded:   make([]uint64, n),
		decided:   make([]uint64, n),
		decision:  make([]uint64, n),
		halted:    make([]uint64, n),
	}
	for i, in := range inputs {
		if in {
			w.candidate[i] = w.all
			w.pending[i] = w.all
		}
	}
	return w
}

func (w *wordFlood) N() int { return w.n }

func (w *wordFlood) SlicedSend(round, node int, active uint64, out []SlicedMsg) ([]SlicedMsg, uint64) {
	if round >= w.t+2 {
		return out, 0
	}
	m := w.pending[node] &^ w.flooded[node] & active
	if m == 0 {
		return out, 0
	}
	w.pending[node] &^= m
	w.flooded[node] |= m
	for to := 0; to < w.n; to++ {
		if to != node {
			out = append(out, SlicedMsg{From: int32(node), To: int32(to), Lanes: m, Bits: m})
		}
	}
	return out, 0
}

func (w *wordFlood) SlicedDeliver(round, node int, active uint64, inbox []SlicedMsg) uint64 {
	var got uint64
	for i := range inbox {
		got |= inbox[i].Lanes & inbox[i].Bits
	}
	if x := got &^ w.candidate[node] & active; x != 0 {
		w.candidate[node] |= x
		w.pending[node] |= x
	}
	if round == w.t+1 {
		w.decided[node] |= active
		w.decision[node] = w.decision[node]&^active | w.candidate[node]&active
		w.halted[node] |= active
	}
	return 0
}

func (w *wordFlood) HaltedLanes(node int) uint64 { return w.halted[node] }

// planCrash is a declarative crash schedule implementing both sides of
// the sliced contract: FilterSend for the scalar engine, CrashEvents
// for the sliced one. At most one event per node.
type planCrash struct{ events []CrashEvent }

func (p planCrash) FilterSend(round int, from NodeID, out []Envelope) ([]Envelope, bool) {
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

func (p planCrash) CrashEvents() []CrashEvent { return p.events }

// hashLink is a stateless drop/delay filter (the fuzzLink hash) that
// embeds NoFailures, inheriting the empty CrashEvents declaration the
// way internal/link's models do.
type hashLink struct {
	NoFailures
	d    int
	seed uint64
}

func (h hashLink) FilterLink(round int, env Envelope) Verdict {
	x := h.seed
	x ^= uint64(round) * 0x9e3779b97f4a7c15
	x ^= uint64(env.From) * 0xbf58476d1ce4e5b9
	x ^= uint64(env.To) * 0x94d049bb133111eb
	x ^= uint64(env.Payload.SizeBits()) * 0xd6e8feb86659fd93
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	switch p := x % 100; {
	case p < 12:
		return Drop
	case p < 35:
		return DelayBy(1 + int((x>>32)%uint64(h.d)))
	default:
		return Deliver
	}
}

func (h hashLink) MaxDelay() int { return h.d }

// planCrashLink combines the declarative crash schedule with the
// stateless link filter — the full sliceable fault surface at once.
type planCrashLink struct {
	planCrash
	link hashLink
}

func (p planCrashLink) FilterLink(round int, env Envelope) Verdict {
	return p.link.FilterLink(round, env)
}

func (p planCrashLink) MaxDelay() int { return p.link.d }

// laneCrashEvents builds a per-lane crash schedule: f distinct nodes,
// random rounds within the horizon, keeps in {-1, 0, 1, 2}.
func laneCrashEvents(n, f, horizon int, seed uint64) []CrashEvent {
	r := rng.New(seed)
	seen := make(map[NodeID]bool, f)
	events := make([]CrashEvent, 0, f)
	for len(events) < f {
		node := r.Intn(n)
		if seen[node] {
			continue
		}
		seen[node] = true
		events = append(events, CrashEvent{Node: node, Round: r.Intn(horizon), Keep: r.Intn(4) - 1})
	}
	return events
}

// compareLane pins one sliced lane against the scalar engine's Result
// for the same fault layer.
func compareLane(t *testing.T, tag string, want *Result, lane *LaneResult, nodes []*consFlood, w *wordFlood, laneBit uint64) {
	t.Helper()
	if lane.Escaped {
		t.Fatalf("%s: lane unexpectedly escaped", tag)
	}
	if lane.Err != nil {
		t.Fatalf("%s: lane error: %v", tag, lane.Err)
	}
	if !reflect.DeepEqual(want.Metrics, lane.Metrics) {
		t.Fatalf("%s: metrics diverged:\nscalar %+v\nsliced %+v", tag, want.Metrics, lane.Metrics)
	}
	if !want.Crashed.Equal(lane.Crashed) {
		t.Fatalf("%s: crash sets diverged: %v vs %v", tag, want.Crashed.Elements(), lane.Crashed.Elements())
	}
	if !reflect.DeepEqual(want.HaltedAt, lane.HaltedAt) {
		t.Fatalf("%s: HaltedAt diverged:\nscalar %v\nsliced %v", tag, want.HaltedAt, lane.HaltedAt)
	}
	for i, fn := range nodes {
		if fn.decided != (w.decided[i]&laneBit != 0) {
			t.Fatalf("%s: node %d decided diverged", tag, i)
		}
		if fn.decided && fn.decision != (w.decision[i]&laneBit != 0) {
			t.Fatalf("%s: node %d decision diverged", tag, i)
		}
	}
}

// TestSlicedEngineMatchesScalarPerLane pins the sliced engine against
// the scalar engine lane by lane at full width (64 lanes), across the
// sliceable fault surface: fault-free lanes, per-lane crash schedules
// (including an all-nodes-crash lane, so lanes settle in different
// rounds), per-lane stateless link filters, and both combined.
func TestSlicedEngineMatchesScalarPerLane(t *testing.T) {
	const n, tBound, lanes = 48, 8, 64
	horizon := tBound + 2
	maxRounds := horizon + 8
	inputs := make([]bool, n)
	for i := range inputs {
		inputs[i] = i%3 == 0
	}

	// laneFault builds lane's fault layer: a rotating mix of no fault,
	// crash schedule, link filter, and crash+link. Lane 7 crashes every
	// node at round 2 — the divergence lane that settles early.
	laneFault := func(lane int) LinkFault {
		seed := uint64(1000 + lane*37)
		if lane == 7 {
			events := make([]CrashEvent, n)
			for i := range events {
				events[i] = CrashEvent{Node: i, Round: 2, Keep: -1}
			}
			return planCrash{events: events}
		}
		switch lane % 4 {
		case 0:
			return nil
		case 1:
			return planCrash{events: laneCrashEvents(n, n/6, horizon, seed)}
		case 2:
			return hashLink{d: 3, seed: seed}
		default:
			return planCrashLink{
				planCrash: planCrash{events: laneCrashEvents(n, n/6, horizon, seed)},
				link:      hashLink{d: 2, seed: seed + 5},
			}
		}
	}

	faults := make([]LinkFault, lanes)
	for lane := range faults {
		faults[lane] = laneFault(lane)
	}
	w := newWordFlood(n, tBound, lanes, inputs)
	sliced, err := RunSliced(SlicedConfig{System: w, Lanes: lanes, MaxRounds: maxRounds, Faults: faults})
	if err != nil {
		t.Fatalf("sliced run: %v", err)
	}

	var settleRounds []int
	for lane := 0; lane < lanes; lane++ {
		nodes := make([]*consFlood, n)
		ps := make([]Protocol, n)
		for i := range ps {
			nodes[i] = &consFlood{id: i, n: n, t: tBound, candidate: inputs[i], pending: inputs[i]}
			ps[i] = nodes[i]
		}
		want, err := Run(Config{Protocols: ps, Fault: laneFault(lane), MaxRounds: maxRounds})
		if err != nil {
			t.Fatalf("lane %d: scalar run: %v", lane, err)
		}
		compareLane(t, fmt.Sprintf("lane %d", lane), want, &sliced.Lanes[lane], nodes, w, uint64(1)<<lane)
		settleRounds = append(settleRounds, sliced.Lanes[lane].Metrics.Rounds)
	}

	// The divergence lane must have settled strictly earlier than the
	// fault-free lanes (all nodes crashed at round 2 → 3 rounds).
	if settleRounds[7] != 3 {
		t.Fatalf("divergence lane settled at %d rounds, want 3", settleRounds[7])
	}
	if settleRounds[0] != horizon {
		t.Fatalf("fault-free lane settled at %d rounds, want %d", settleRounds[0], horizon)
	}
}

// declLink is a link filter written in the kernel vocabulary: its
// FilterLink is the documented meaning of its LinkKernel, spelled out
// per envelope, so the sliced engine may answer for it with a word
// kernel (internal/link's models have this shape; they cannot be
// imported here).
type declLink struct {
	NoFailures
	k LinkKernel
}

func (d declLink) FilterLink(round int, env Envelope) Verdict {
	h := LinkHashFinish(d.k.Seed ^ LinkHashKey(round, env.From, env.To))
	switch d.k.Kind {
	case KernelOmission:
		if h < d.k.Threshold {
			return Drop
		}
	case KernelDelay:
		return DelayBy(int(h % uint64(d.k.Delay+1)))
	case KernelPartition:
		if round >= d.k.Start && round < d.k.End && (env.From < d.k.Cut) != (env.To < d.k.Cut) {
			return Drop
		}
	}
	return Deliver
}

func (d declLink) MaxDelay() int {
	if d.k.Kind == KernelDelay {
		return d.k.Delay
	}
	return 0
}

func (d declLink) LinkKernel() LinkKernel { return d.k }

// declCrashLink adds a declarative crash schedule to a declLink: a
// kernel lane with node-level crashes (planCrash's node level shadows
// the NoFailures embedded one level deeper in declLink).
type declCrashLink struct {
	planCrash
	declLink
}

// slicedFault is the full sliceable fault surface.
type slicedFault interface {
	LinkFilter
	CrashPlan
}

// opaqueLink hides whatever kernel its filter declares (f is a named
// field, so no LinkKernel method is promoted): the lane keeps the
// engine's per-lane FilterLink loop.
type opaqueLink struct{ f slicedFault }

func (o opaqueLink) FilterSend(round int, from NodeID, out []Envelope) ([]Envelope, bool) {
	return o.f.FilterSend(round, from, out)
}
func (o opaqueLink) CrashEvents() []CrashEvent                  { return o.f.CrashEvents() }
func (o opaqueLink) FilterLink(round int, env Envelope) Verdict { return o.f.FilterLink(round, env) }
func (o opaqueLink) MaxDelay() int                              { return o.f.MaxDelay() }

// TestSlicedKernelLanesMatchOpaqueLanes pins the lane kernels inside
// the engine: a 64-lane batch in which most lanes declare a kernel —
// omission, delays through every modulus arm (d up to 5, so arrivals
// cross the deciding round), partitions sharing and not sharing a cut,
// kernels combined with crash schedules — next to filter-free lanes and
// lanes whose filter declares nothing, must equal, lane for lane, the
// same batch with every filter wrapped opaque (the per-lane FilterLink
// loop with all of its validation), and both must equal the scalar
// engine — on the kernels' portable loops and, where the CPU has it,
// the vector kernel.
func TestSlicedKernelLanesMatchOpaqueLanes(t *testing.T) {
	const n, tBound, lanes = 48, 8, 64
	horizon := tBound + 2
	maxRounds := horizon + 8
	inputs := make([]bool, n)
	for i := range inputs {
		inputs[i] = i%5 == 0
	}
	laneFault := func(lane int) slicedFault {
		seed := uint64(7000 + lane*131)
		var k LinkKernel
		switch lane % 8 {
		case 0:
			return nil
		case 1:
			return hashLink{d: 2, seed: seed} // declares nothing
		case 2:
			k = LinkKernel{Kind: KernelOmission, Seed: seed, Threshold: 1 << 61} // 12.5 %
		case 3:
			k = LinkKernel{Kind: KernelDelay, Seed: seed, Delay: 1 + lane/8%5}
		case 4:
			k = LinkKernel{Kind: KernelPartition, Start: lane / 8 % 3, End: 2 + lane/8, Cut: n / 2}
		case 5:
			k = LinkKernel{Kind: KernelPartition, Start: 0, End: horizon, Cut: lane}
		case 6:
			k = LinkKernel{Kind: KernelDelay, Seed: seed, Delay: 2}
		default:
			return declCrashLink{
				planCrash: planCrash{events: laneCrashEvents(n, n/6, horizon, seed)},
				declLink:  declLink{k: LinkKernel{Kind: KernelOmission, Seed: seed, Threshold: 1 << 62}},
			}
		}
		return declLink{k: k}
	}

	run := func(wrap bool) (*wordFlood, *SlicedResult, uint64) {
		faults := make([]LinkFault, lanes)
		for lane := range faults {
			if f := laneFault(lane); f != nil {
				if wrap {
					f = opaqueLink{f: f}
				}
				faults[lane] = f
			}
		}
		w := newWordFlood(n, tBound, lanes, inputs)
		rt := NewRuntime()
		res, err := rt.RunSliced(SlicedConfig{System: w, Lanes: lanes, MaxRounds: maxRounds, Faults: faults})
		if err != nil {
			t.Fatalf("sliced run (opaque=%v): %v", wrap, err)
		}
		return w, res, rt.sl.kern.lanes
	}
	wo, opaque, opaqueKernLanes := run(true)
	t.Cleanup(func() { bitset.HasVector = vectorDetected })
	for _, vector := range KernelPaths() {
		bitset.HasVector = vector
		wk, kern, kernLanes := run(false)

		var declared uint64
		for lane := 0; lane < lanes; lane++ {
			if _, ok := laneFault(lane).(KernelFilter); ok {
				declared |= uint64(1) << lane
			}
		}
		if kernLanes != declared || bits.OnesCount64(declared) != 48 || opaqueKernLanes != 0 {
			t.Fatalf("vector=%v kernel lanes: mixed run %#x, opaque run %#x, declared %#x", vector, kernLanes, opaqueKernLanes, declared)
		}
		if !reflect.DeepEqual(kern.Lanes, opaque.Lanes) || !reflect.DeepEqual(wk, wo) {
			for lane := range kern.Lanes {
				if !reflect.DeepEqual(kern.Lanes[lane], opaque.Lanes[lane]) {
					t.Fatalf("vector=%v lane %d (%T) diverged:\nkernel %+v\nopaque %+v", vector, lane, laneFault(lane), kern.Lanes[lane], opaque.Lanes[lane])
				}
			}
			t.Fatalf("vector=%v: system state diverged between the kernel and the opaque run", vector)
		}

		for lane := 0; lane < lanes; lane++ {
			nodes := make([]*consFlood, n)
			ps := make([]Protocol, n)
			for i := range ps {
				nodes[i] = &consFlood{id: i, n: n, t: tBound, candidate: inputs[i], pending: inputs[i]}
				ps[i] = nodes[i]
			}
			var fault LinkFault
			if f := laneFault(lane); f != nil {
				fault = f
			}
			want, err := Run(Config{Protocols: ps, Fault: fault, MaxRounds: maxRounds})
			if err != nil {
				t.Fatalf("lane %d: scalar run: %v", lane, err)
			}
			compareLane(t, fmt.Sprintf("lane %d", lane), want, &kern.Lanes[lane], nodes, wk, uint64(1)<<lane)
		}
	}
}

// --- Delivery order under delays --------------------------------------
//
// orderNode and wordOrder are a scalar/sliced pair whose state is the
// delivery order itself: in each of its first `sends` rounds every node
// sends to every node a message naming its send round, and each node
// folds the (From, send round) of its inbox, in order, into a
// fingerprint. Inboxes must come sorted by sender and, within a sender,
// by send round; delayed arrivals that are not interleaved by sender,
// or a sender's delayed messages out of send-round order, change a
// fingerprint.

// sendRound is a message naming its send round. One bit, like the
// sliced engine's stand-in payload, so hashLink's verdicts agree.
type sendRound struct{ round int }

func (sendRound) SizeBits() int { return 1 }

func foldOrder(acc uint64, from, round int) uint64 {
	return (acc ^ uint64(from)<<32 ^ uint64(round)) * 0x100000001b3
}

type orderNode struct {
	id, n, sends, halt int
	acc                uint64
	halted             bool
	out                []Envelope
}

func (o *orderNode) Send(round int) []Envelope {
	o.out = o.out[:0]
	for to := 0; round < o.sends && to < o.n; to++ {
		if to != o.id {
			o.out = append(o.out, Envelope{From: o.id, To: to, Payload: sendRound{round}})
		}
	}
	return o.out
}

func (o *orderNode) Deliver(round int, inbox []Envelope) {
	for _, env := range inbox {
		o.acc = foldOrder(o.acc, env.From, env.Payload.(sendRound).round)
	}
	o.halted = round >= o.halt
}

func (o *orderNode) Halted() bool { return o.halted }

// wordOrder is orderNode for the sliced engine, the send round in Tag
// and one fingerprint per (node, lane).
type wordOrder struct {
	n, sends, halt int
	acc            [][64]uint64
	halted         []uint64
}

func (w *wordOrder) N() int { return w.n }

func (w *wordOrder) SlicedSend(round, node int, active uint64, out []SlicedMsg) ([]SlicedMsg, uint64) {
	for to := 0; round < w.sends && to < w.n; to++ {
		if to != node {
			out = append(out, SlicedMsg{From: int32(node), To: int32(to), Lanes: active, Tag: uint32(round)})
		}
	}
	return out, 0
}

func (w *wordOrder) SlicedDeliver(round, node int, active uint64, inbox []SlicedMsg) uint64 {
	for _, m := range inbox {
		for l := m.Lanes & active; l != 0; l &= l - 1 {
			lane := bits.TrailingZeros64(l)
			w.acc[node][lane] = foldOrder(w.acc[node][lane], int(m.From), int(m.Tag))
		}
	}
	if round >= w.halt {
		w.halted[node] |= active
	}
	return 0
}

func (w *wordOrder) HaltedLanes(node int) uint64 { return w.halted[node] }

// TestSlicedDeliveryOrderUnderDelays pins each lane's inbox order
// under delays to the scalar engine's: kernel delay lanes and opaque
// hashLink lanes with d = 1…3, each alone and with a crash schedule
// (a crashed sender's delayed messages still arrive), beside
// fault-free lanes, must leave every node the scalar run's fingerprint
// and the scalar Result.
func TestSlicedDeliveryOrderUnderDelays(t *testing.T) {
	const n, sends, lanes = 12, 8, 64
	halt := sends + 3 // every delayed message has arrived
	laneFault := func(lane int) LinkFault {
		seed := uint64(5000 + lane*71)
		d := 1 + lane/8%3
		crash := planCrash{events: laneCrashEvents(n, n/4, sends, seed)}
		switch lane % 8 {
		case 0:
			return nil
		case 1, 2:
			return hashLink{d: d, seed: seed}
		case 3, 4:
			return declLink{k: LinkKernel{Kind: KernelDelay, Seed: seed, Delay: d}}
		case 5:
			return planCrashLink{planCrash: crash, link: hashLink{d: d, seed: seed}}
		case 6:
			return declCrashLink{planCrash: crash, declLink: declLink{k: LinkKernel{Kind: KernelDelay, Seed: seed, Delay: d}}}
		default:
			return crash
		}
	}
	faults := make([]LinkFault, lanes)
	for lane := range faults {
		faults[lane] = laneFault(lane)
	}
	w := &wordOrder{n: n, sends: sends, halt: halt, acc: make([][64]uint64, n), halted: make([]uint64, n)}
	sliced, err := RunSliced(SlicedConfig{System: w, Lanes: lanes, MaxRounds: halt + 2, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < lanes; lane++ {
		nodes := make([]*orderNode, n)
		ps := make([]Protocol, n)
		for i := range ps {
			nodes[i] = &orderNode{id: i, n: n, sends: sends, halt: halt}
			ps[i] = nodes[i]
		}
		want, err := Run(Config{Protocols: ps, Fault: laneFault(lane), MaxRounds: halt + 2})
		if err != nil {
			t.Fatalf("lane %d: scalar run: %v", lane, err)
		}
		got := &sliced.Lanes[lane]
		if got.Err != nil || got.Escaped || !reflect.DeepEqual(want.Metrics, got.Metrics) || !want.Crashed.Equal(got.Crashed) {
			t.Fatalf("lane %d (%T): sliced %+v, scalar %+v", lane, laneFault(lane), got, want)
		}
		for i, nd := range nodes {
			if nd.acc != w.acc[i][lane] {
				t.Fatalf("lane %d (%T): node %d's delivery order diverged from the scalar engine's", lane, laneFault(lane), i)
			}
		}
	}
}

type equivCase struct {
	name       string
	singlePort bool
	crash      bool
	byzantine  bool
	labeler    bool
	// link layers the randomized drop/delay filter (fuzzLink) over the
	// fault — combined with crash it exercises the whole LinkFault
	// surface at once.
	link bool
	// mixed interleaves the one-bit payload kinds with the
	// protocol-defined fuzzPayload, so runs of one box alternate with
	// envelopes boxed apart in the run-length traffic accounting.
	mixed bool
}

func buildFuzz(n, horizon int, c equivCase, seed uint64) ([]Protocol, []*fuzzNode) {
	ps := make([]Protocol, n)
	fs := make([]*fuzzNode, n)
	for i := 0; i < n; i++ {
		fs[i] = newFuzzNode(i, n, horizon, c.singlePort, c.mixed, seed)
		ps[i] = fs[i]
	}
	return ps, fs
}

func equivConfig(c equivCase, ps []Protocol, n, horizon int, seed uint64) Config {
	cfg := Config{Protocols: ps, MaxRounds: horizon + 16, SinglePort: c.singlePort}
	if c.crash {
		cfg.Fault = newMultiCrash(n, n/6, horizon, seed+17)
	}
	if c.link {
		fl := fuzzLink{d: 3, seed: seed + 29}
		if c.crash {
			fl.crash = newMultiCrash(n, n/6, horizon, seed+17)
			fl.useCrash = true
		}
		cfg.Fault = fl
	}
	if c.byzantine {
		byz := bitset.New(n)
		r := rng.New(seed + 41)
		for i := 0; i < n/8; i++ {
			byz.Add(r.Intn(n))
		}
		cfg.Byzantine = byz
	}
	if c.labeler {
		cfg.PartLabeler = func(round int) string { return fmt.Sprintf("part%d", round/5) }
	}
	return cfg
}

func compareResults(t *testing.T, tag string, want, got *Result, wantNodes, gotNodes []*fuzzNode) {
	t.Helper()
	if !reflect.DeepEqual(want.Metrics, got.Metrics) {
		t.Fatalf("%s: metrics diverged:\nreference %+v\n      got %+v", tag, want.Metrics, got.Metrics)
	}
	if !want.Crashed.Equal(got.Crashed) {
		t.Fatalf("%s: crash sets diverged: %v vs %v", tag, want.Crashed.Elements(), got.Crashed.Elements())
	}
	if !reflect.DeepEqual(want.HaltedAt, got.HaltedAt) {
		t.Fatalf("%s: HaltedAt diverged:\nreference %v\n      got %v", tag, want.HaltedAt, got.HaltedAt)
	}
	for i := range wantNodes {
		if wantNodes[i].acc != gotNodes[i].acc || wantNodes[i].rounds != gotNodes[i].rounds {
			t.Fatalf("%s: node %d end state diverged", tag, i)
		}
	}
}

func TestEngineEquivalenceRandomized(t *testing.T) {
	cases := []equivCase{
		{name: "multi-port", labeler: true},
		{name: "multi-port/crash", crash: true},
		{name: "multi-port/byzantine", byzantine: true, labeler: true},
		{name: "single-port", singlePort: true, labeler: true},
		{name: "single-port/crash", singlePort: true, crash: true},
		{name: "single-port/byzantine", singlePort: true, byzantine: true},
		{name: "multi-port/link", link: true, labeler: true},
		{name: "multi-port/link+crash", link: true, crash: true},
		{name: "multi-port/link/byzantine", link: true, byzantine: true, labeler: true},
		{name: "single-port/link", singlePort: true, link: true},
		{name: "single-port/link+crash", singlePort: true, link: true, crash: true},
		{name: "multi-port/mixed-payloads", mixed: true, labeler: true},
		{name: "multi-port/mixed/link+crash", mixed: true, link: true, crash: true},
		{name: "multi-port/mixed/byzantine", mixed: true, byzantine: true},
		{name: "single-port/mixed", singlePort: true, mixed: true},
		{name: "single-port/mixed/link", singlePort: true, mixed: true, link: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 2, 3, 5, 8} {
				const n, horizon = 48, 24
				refPs, refNodes := buildFuzz(n, horizon, c, seed)
				refRes, err := referenceRun(equivConfig(c, refPs, n, horizon, seed))
				if err != nil {
					t.Fatalf("seed %d: reference: %v", seed, err)
				}

				seqPs, seqNodes := buildFuzz(n, horizon, c, seed)
				seqRes, err := Run(equivConfig(c, seqPs, n, horizon, seed))
				if err != nil {
					t.Fatalf("seed %d: sequential: %v", seed, err)
				}
				compareResults(t, fmt.Sprintf("seed %d: sequential vs reference", seed),
					refRes, seqRes, refNodes, seqNodes)
			}
		})
	}
}

// TestRuntimeReuseMatchesReference re-runs the randomized equivalence
// matrix on ONE shared Runtime — interleaving multi-port, single-port
// and link-fault runs at varying sizes — and demands every
// pooled run match the fresh-state reference exactly. Any state the
// arena fails to reset between runs (a stale port ring, a leftover
// delay slot, a dirty metrics array, a stale recorded outbox)
// diverges the transcript.
func TestRuntimeReuseMatchesReference(t *testing.T) {
	cases := []equivCase{
		{name: "multi-port", labeler: true},
		{name: "multi-port/mixed/link+crash", mixed: true, link: true, crash: true},
		{name: "single-port/mixed", singlePort: true, mixed: true},
		{name: "multi-port/crash", crash: true},
		{name: "single-port/link+crash", singlePort: true, link: true, crash: true},
		{name: "multi-port/mixed/byzantine", mixed: true, byzantine: true, labeler: true},
	}
	rt := NewRuntime()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, seed := range []uint64{3, 7, 11} {
				// Vary n per seed so arena reuse also crosses sizes.
				n := 32 + int(seed)*4
				const horizon = 20
				refPs, refNodes := buildFuzz(n, horizon, c, seed)
				refRes, err := referenceRun(equivConfig(c, refPs, n, horizon, seed))
				if err != nil {
					t.Fatalf("seed %d: reference: %v", seed, err)
				}

				rtPs, rtNodes := buildFuzz(n, horizon, c, seed)
				rtRes, err := rt.Run(equivConfig(c, rtPs, n, horizon, seed))
				if err != nil {
					t.Fatalf("seed %d: runtime: %v", seed, err)
				}
				compareResults(t, fmt.Sprintf("seed %d: pooled run vs reference", seed),
					refRes, rtRes, refNodes, rtNodes)
			}
		})
	}
}

// --- Quiet-round fast-forward ----------------------------------------

// napNode is a randomized Sleeper: it sends a small burst, then naps
// for a seeded span during which Send and empty Deliver calls leave it
// untouched — so skipping them is unobservable — and it answers
// QuietUntil honestly. A delivery may cut the nap short (a seeded
// coin, so some deliveries are slept through), and every node halts in
// its own round. Deliver folds the round into the accumulator: a
// message fast-forwarded to the wrong round diverges the end state. In
// deaf rounds (see deaf) Deliver reads nothing and says so (Ignores);
// heard counts the non-empty inboxes it was handed there, which the
// end-state comparison leaves out.
type napNode struct {
	id, n, haltAt int
	single        bool
	r             *rng.SplitMix64
	wake          int
	acc           uint64
	halted        bool
	heard         int
	out           []Envelope
}

// deaf reports whether node id ignores its round-r inbox: every node in
// rounds ≡ 1 (mod 3) but, in rounds ≡ 4 (mod 9), node r mod n, so that
// some rounds are ignored by every node and some by all but one.
func deaf(id, n, r int) bool { return r%3 == 1 && (r%9 != 4 || id != r%n) }

func newNapNode(id, n, horizon int, single bool, seed uint64) *napNode {
	f := &napNode{
		id: id, n: n, haltAt: horizon + id%5, single: single,
		r:   rng.New(seed ^ uint64(id)*0x9e3779b97f4a7c15),
		acc: uint64(id) + 1,
	}
	f.wake = f.r.Intn(8) * f.r.Intn(2)
	return f
}

func (f *napNode) Send(round int) []Envelope {
	if round < f.wake {
		return nil
	}
	f.out = f.out[:0]
	fanout := 1 + f.r.Intn(3)
	if f.single {
		fanout = 1
	}
	for k := 0; k < fanout; k++ {
		to := f.r.Intn(f.n - 1)
		if to >= f.id {
			to++
		}
		f.out = append(f.out, Envelope{From: f.id, To: to, Payload: fuzzPayload{bits: 1 + int(f.acc%7)}})
	}
	f.wake = round + 1 + f.r.Intn(128)*min(f.r.Intn(4), 1)
	return f.out
}

func (f *napNode) Poll(round int) (NodeID, bool) { return (f.id + 1 + round) % f.n, true }

func (f *napNode) Deliver(round int, inbox []Envelope) {
	if f.Ignores(round) {
		if len(inbox) > 0 {
			f.heard++
		}
		inbox = nil
	}
	for _, env := range inbox {
		f.acc = f.acc*0x100000001b3 ^ uint64(env.From)<<17 ^ uint64(round)<<3 ^ uint64(env.Payload.SizeBits())
	}
	if len(inbox) > 0 && f.r.Intn(3) == 0 {
		f.wake = min(f.wake, round+1)
	}
	if round >= f.haltAt {
		f.halted = true
	}
}

func (f *napNode) Halted() bool { return f.halted }

func (f *napNode) QuietUntil(round int) int { return min(f.wake, f.haltAt) }

func (f *napNode) RepeatUntil(round, _ int) int { return round }

func (f *napNode) Ignores(round int) bool { return deaf(f.id, f.n, round) }

// awakeNode hides a napNode's QuietUntil: one of them makes a run
// ineligible for the fast-forward.
type awakeNode struct{ Protocol }

func buildNaps(n, horizon int, single bool, seed uint64) ([]Protocol, []*napNode) {
	ps := make([]Protocol, n)
	ns := make([]*napNode, n)
	for i := range ps {
		ns[i] = newNapNode(i, n, horizon, single, seed)
		ps[i] = ns[i]
	}
	return ps, ns
}

func compareNaps(t *testing.T, tag string, want, got *Result, wantNodes, gotNodes []*napNode) {
	t.Helper()
	if !reflect.DeepEqual(want.Metrics, got.Metrics) {
		t.Fatalf("%s: metrics diverged:\nreference %+v\n      got %+v", tag, want.Metrics, got.Metrics)
	}
	if !want.Crashed.Equal(got.Crashed) || !reflect.DeepEqual(want.HaltedAt, got.HaltedAt) {
		t.Fatalf("%s: crash set or HaltedAt diverged:\nreference %v %v\n      got %v %v",
			tag, want.Crashed.Elements(), want.HaltedAt, got.Crashed.Elements(), got.HaltedAt)
	}
	for i, w := range wantNodes {
		g := gotNodes[i]
		if w.acc != g.acc || w.wake != g.wake || w.halted != g.halted || *w.r != *g.r {
			t.Fatalf("%s: node %d end state diverged", tag, i)
		}
	}
}

// napCase is one fault/config shape of the fast-forward tests; skips
// says whether the run loop may jump over its silent rounds.
type napCase struct {
	name   string
	skips  bool
	single bool
	config func(ps []Protocol, n, horizon int, seed uint64) Config
}

func napCases() []napCase {
	base := func(ps []Protocol, horizon int) Config {
		return Config{Protocols: ps, MaxRounds: horizon + 16,
			PartLabeler: func(round int) string { return fmt.Sprintf("part%d", round/9) }}
	}
	plan := func(n, horizon int, seed uint64) planCrash {
		return planCrash{events: laneCrashEvents(n, n/4, horizon, seed+17)}
	}
	return []napCase{
		{name: "no-fault", skips: true, config: func(ps []Protocol, n, horizon int, seed uint64) Config {
			return base(ps, horizon)
		}},
		{name: "crash-plan", skips: true, config: func(ps []Protocol, n, horizon int, seed uint64) Config {
			cfg := base(ps, horizon)
			cfg.Fault = plan(n, horizon, seed)
			return cfg
		}},
		{name: "crash-plan+delay", skips: true, config: func(ps []Protocol, n, horizon int, seed uint64) Config {
			cfg := base(ps, horizon)
			cfg.Fault = planCrashLink{planCrash: plan(n, horizon, seed), link: hashLink{d: 3, seed: seed + 29}}
			return cfg
		}},
		{name: "non-sleeper", config: func(ps []Protocol, n, horizon int, seed uint64) Config {
			ps[n/2] = awakeNode{ps[n/2]}
			return base(ps, horizon)
		}},
		{name: "opaque-fault", config: func(ps []Protocol, n, horizon int, seed uint64) Config {
			cfg := base(ps, horizon)
			cfg.Fault = newMultiCrash(n, n/4, horizon, seed+17)
			return cfg
		}},
		{name: "byzantine", config: func(ps []Protocol, n, horizon int, seed uint64) Config {
			cfg := base(ps, horizon)
			cfg.Byzantine = bitset.New(n)
			cfg.Byzantine.Add(int(seed) % n)
			return cfg
		}},
		{name: "single-port", single: true, config: func(ps []Protocol, n, horizon int, seed uint64) Config {
			cfg := base(ps, horizon)
			cfg.SinglePort = true
			return cfg
		}},
	}
}

// TestQuietSkipMatchesReference pins the fast-forwarding run loop — on
// a fresh state and on a reused Runtime — against the
// reference engine, which knows nothing of Sleepers, executes every
// round and delivers every inbox: same Result, same machine end states.
// Eligible shapes must actually skip, and hand the machines fewer of the
// inboxes they ignore (the engine places none in a round every live
// node ignores); ineligible ones (a non-Sleeper machine, an opaque
// fault, a Byzantine set, single-port) must execute every round and
// deliver every inbox.
func TestQuietSkipMatchesReference(t *testing.T) {
	rt := NewRuntime()
	for _, c := range napCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 2, 3, 5, 8, 13} {
				n, horizon := 12+int(seed), 150
				build := func() (Config, []*napNode) {
					ps, nodes := buildNaps(n, horizon, c.single, seed)
					return c.config(ps, n, horizon, seed), nodes
				}
				refCfg, refNodes := build()
				ref, err := referenceRun(refCfg)
				if err != nil {
					t.Fatalf("seed %d: reference: %v", seed, err)
				}

				cfg, nodes := build()
				stepper, err := NewStepper(cfg)
				if err != nil {
					t.Fatal(err)
				}
				st := stepper.st
				res, err := st.run()
				if err != nil {
					t.Fatalf("seed %d: sequential: %v", seed, err)
				}
				compareNaps(t, fmt.Sprintf("seed %d: sequential", seed), ref, res, refNodes, nodes)
				if st.simulated != ref.Metrics.Rounds {
					t.Fatalf("seed %d: simulated %d rounds, reference ran %d", seed, st.simulated, ref.Metrics.Rounds)
				}
				t.Logf("seed %d: skipped %d of %d rounds", seed, st.skipped, st.simulated)
				if c.skips && st.skipped == 0 {
					t.Fatalf("seed %d: an eligible run of %d rounds skipped none", seed, st.simulated)
				}
				if !c.skips && st.skipped != 0 {
					t.Fatalf("seed %d: an ineligible run skipped %d of %d rounds", seed, st.skipped, st.simulated)
				}
				if got, want := heard(nodes), heard(refNodes); want == 0 || c.skips != (got < want) || got > want {
					t.Fatalf("seed %d: %d ignored inboxes were delivered non-empty, %d by the reference", seed, got, want)
				}

				cfg, nodes = build()
				res, err = rt.Run(cfg)
				if err != nil {
					t.Fatalf("seed %d: runtime: %v", seed, err)
				}
				compareNaps(t, fmt.Sprintf("seed %d: pooled run", seed), ref, res, refNodes, nodes)
			}
		})
	}
}

// heard sums the non-empty inboxes a system of napNodes ignored.
func heard(nodes []*napNode) int {
	sum := 0
	for _, nd := range nodes {
		sum += nd.heard
	}
	return sum
}

// scriptNode sends one message to each listed target in the listed
// rounds and otherwise sleeps to its halting round; it logs the rounds
// in which something was delivered to it.
type scriptNode struct {
	id, haltAt int
	sendAt     map[int][]NodeID
	got        []int
	halted     bool
	out        Outbox
}

func (s *scriptNode) Send(round int) []Envelope {
	return s.out.FanOut(s.id, s.sendAt[round], Bit(true))
}

func (s *scriptNode) Deliver(round int, inbox []Envelope) {
	if len(inbox) > 0 {
		s.got = append(s.got, round)
	}
	s.halted = round >= s.haltAt
}

func (s *scriptNode) Halted() bool { return s.halted }

func (s *scriptNode) RepeatUntil(round, _ int) int { return round }

func (s *scriptNode) Ignores(int) bool { return false }

func (s *scriptNode) QuietUntil(round int) int {
	w := s.haltAt
	for r := range s.sendAt {
		if r >= round {
			w = min(w, r)
		}
	}
	return w
}

// TestQuietSkipWaitsForParkedMessages: while a delayed message sits in
// the ring the run loop must keep stepping — every machine is asleep,
// yet the arrival round has to execute — and it resumes skipping once
// the ring has drained.
func TestQuietSkipWaitsForParkedMessages(t *testing.T) {
	nodes := []*scriptNode{
		{id: 0, haltAt: 40, sendAt: map[int][]NodeID{2: {1}, 20: {2}}},
		{id: 1, haltAt: 40},
		{id: 2, haltAt: 40},
	}
	ps := make([]Protocol, len(nodes))
	for i, nd := range nodes {
		ps[i] = nd
	}
	stepper, err := NewStepper(Config{Protocols: ps, MaxRounds: 50, Fault: delayAll{by: 3, bound: 3}})
	if err != nil {
		t.Fatal(err)
	}
	st := stepper.st
	res, err := st.run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nodes[1].got, []int{5}) || !reflect.DeepEqual(nodes[2].got, []int{23}) {
		t.Fatalf("deliveries at %v and %v, want [5] and [23]", nodes[1].got, nodes[2].got)
	}
	// Executed: 2..5 and 20..23 (send, two parked rounds, arrival) and
	// the halting round 40.
	if res.Metrics.Rounds != 41 || st.simulated-st.skipped != 9 {
		t.Fatalf("simulated %d rounds and executed %d, want 41 and 9", res.Metrics.Rounds, st.simulated-st.skipped)
	}
}
