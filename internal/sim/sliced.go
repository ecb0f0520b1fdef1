package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"lineartime/internal/bitset"
	"lineartime/internal/obs"
)

// The bit-sliced engine: 64 independent replicas ("lanes") of one
// system ride each uint64, one bit per lane. Protocol state becomes
// lane-parallel words, boolean protocol logic becomes word-wide
// AND/OR/XOR, and the send/scatter/deliver walk of a round touches each
// (from, to) pair once for all lanes together instead of once per seed —
// the traversal that dominates a scalar run amortizes 64×.
//
// The engine executes a SlicedSystem — a lane-parallel program — rather
// than 64 copies of a scalar Protocol, so only protocols with a sliced
// implementation run here (consensus.SlicedFlooding is the canonical
// one; scenario.ExecuteBatch picks the engine). Everything a lane can do
// that word logic cannot express escapes: the system reports an escape
// mask, the engine retires those lanes, and the caller re-runs them on
// the scalar path and merges the results back by lane index. Per-lane
// fault divergence stays on the fast path: crash schedules are applied
// as per-lane keep-prefix truncation of the staged segment, and
// link-level verdicts (omission / partition / delay) split each staged
// word message into deliver-now, dropped and per-k delayed lane masks —
// by word kernels for filters that declare their verdict function
// (KernelFilter, lanekernel.go), by one FilterLink call per lane for
// the rest.
//
// Equivalence contract (pinned by engines_equiv_test.go and the
// scenario-level suite): for every lane, the sliced run produces
// exactly the Result the scalar engine produces for that lane's fault
// layer — Metrics, Crashed, HaltedAt and protocol decisions. Byzantine
// counters, PartLabeler and Observer are not supported here; runs that
// need them stay scalar.

// SlicedMsg is one point-to-point message across all lanes: Lanes marks
// the lanes in which the message exists, Bits carries the one-bit
// payload per existing lane (Bits ⊆ Lanes). Systems whose payloads are
// not single bits (sliced gossip) keep the payload content in their own
// lane planes and use Tag to name it: the engine never interprets Tag,
// only carries it — through the delay ring included — so a receiver can
// dispatch on it at delivery. Such systems size their traffic through
// SlicedSizer; everything the word-wide step cannot express escapes to
// the scalar path.
type SlicedMsg struct {
	From, To int32
	Lanes    uint64
	Bits     uint64
	Tag      uint32
}

// SlicedSystem is a lane-parallel program: one state machine whose
// per-node state is lane-vectorized words. The engine calls SlicedSend
// then SlicedDeliver once per (round, node) while any lane of the node
// is alive; `active` masks the lanes still running in which the node is
// neither crashed nor halted, and implementations must confine every
// state change and emitted lane bit to it.
type SlicedSystem interface {
	// N returns the number of nodes.
	N() int
	// SlicedSend appends node's round-r messages for the active lanes to
	// out and returns it, plus a mask of lanes that must escape to the
	// scalar engine (a lane whose behaviour word logic cannot express).
	// Per lane, the emission order of that lane's messages is the append
	// order filtered to the lane — the order crash keep-prefixes
	// truncate in.
	SlicedSend(round, node int, active uint64, out []SlicedMsg) (msgs []SlicedMsg, escape uint64)
	// SlicedDeliver hands node its round-r inbox. Inbox lane masks may
	// include lanes outside active (messages addressed to lanes that
	// crashed or settled since staging); implementations must AND with
	// active. Returns an escape mask like SlicedSend.
	SlicedDeliver(round, node int, active uint64, inbox []SlicedMsg) (escape uint64)
	// HaltedLanes returns the lanes in which node has voluntarily
	// halted. Halting is irrevocable, as in the scalar engine.
	HaltedLanes(node int) uint64
}

// SlicedSizer is optionally implemented by sliced systems whose
// payloads are not single bits. AddSlicedBits adds `times` × the
// payload size of m, per lane of `lanes` (the post-crash mask the engine
// counted the message in), into acc — the same accounting point at
// which the scalar engine calls Payload.SizeBits. The engine calls it
// once per run of a sender's consecutive messages that agree on Tag,
// lanes and Bits, with the run's length as times, so a payload's size
// may depend on From, Tag, Bits and the lane but never on To: m.To is
// not a destination (the engine hands over -1). Systems that don't
// implement it get bits == messages, the 1-bit default.
type SlicedSizer interface {
	AddSlicedBits(m SlicedMsg, lanes uint64, times int, acc *[64]int64)
}

// CrashEvent is one node-level crash in declarative form: at Round, the
// node crashes with only the first Keep messages of its outbox
// delivered (Keep < 0 keeps the whole outbox — a crash after a
// completed multicast).
type CrashEvent struct {
	Node  NodeID
	Round int
	Keep  int
}

// CrashPlan is implemented by fault layers whose node-level behaviour
// is a fixed, data-independent crash schedule — which is what lets the
// sliced engine replay it as per-lane word masks instead of calling
// FilterSend per lane. CrashEvents must fully describe the fault's
// FilterSend crashes (at most one event per node, rounds and keeps
// matching the verdicts FilterSend would return); faults that cannot
// promise this (adaptive adversaries) simply don't implement CrashPlan
// and their lanes stay on the scalar engine.
type CrashPlan interface {
	CrashEvents() []CrashEvent
}

// CrashEvents implements CrashPlan: NoFailures crashes nobody. Link
// faults that embed NoFailures (pure omission/partition/delay models)
// inherit the declaration and stay sliceable.
func (NoFailures) CrashEvents() []CrashEvent { return nil }

var _ CrashPlan = NoFailures{}

// ErrNotSliceable reports a fault layer the sliced engine cannot
// replay; callers fall back to the scalar engine for that run.
var ErrNotSliceable = errors.New("sim: fault layer is not sliceable")

// MaxLanes is the lane capacity of a sliced run: one replica per bit
// of a machine word.
const MaxLanes = 64

// SlicedConfig describes a sliced run: one system, Lanes replicas, and
// an optional per-lane fault layer (Faults[lane] is lane's fault; nil
// entries and a nil slice mean no failures).
type SlicedConfig struct {
	System    SlicedSystem
	Lanes     int
	MaxRounds int
	Faults    []LinkFault
	// Tracer optionally receives stage timings and the run outcome
	// (one RunDone for the whole 64-lane word, not per lane). The
	// steady state stays allocation-free with one installed.
	Tracer obs.RunTracer
}

// LaneResult is one lane's outcome, mirroring the scalar Result.
// Exactly one of three states holds: Escaped (the lane left the sliced
// path; re-run it scalar), Err != nil (the lane did not terminate
// within MaxRounds — the scalar engine would have returned this
// error), or a valid Result triple.
type LaneResult struct {
	Metrics  Metrics
	Crashed  *bitset.Set
	HaltedAt []int
	Err      error
	Escaped  bool
}

// SlicedResult is the outcome of a sliced run. On a pooled Runtime the
// lane results alias arena memory and are valid only until the next
// run, like scalar Results.
type SlicedResult struct {
	// Lanes holds one result per configured lane.
	Lanes []LaneResult
	// Escaped is the mask of lanes that escaped to the scalar path.
	Escaped uint64
}

// RunSliced executes a sliced run on a fresh arena. For repeated runs
// use Runtime.RunSliced, which recycles the arena.
func RunSliced(cfg SlicedConfig) (*SlicedResult, error) {
	return oneShot(func(rt *Runtime) (*SlicedResult, error) { return rt.RunSliced(cfg) })
}

// RunSliced executes a sliced run, reusing the arena's sliced buffers;
// after the first run of a given shape, steady-state runs are
// allocation-free. The result aliases arena memory and is valid only
// until the Runtime's next sliced run.
func (rt *Runtime) RunSliced(cfg SlicedConfig) (*SlicedResult, error) {
	if rt.sl == nil {
		rt.sl = &slicedState{}
	}
	sp := begin(cfg.Tracer, obs.EngineSliced, rt.sl)
	if err := sp.ready(rt.sl.reset(cfg)); err != nil {
		return nil, err
	}
	res, err := rt.sl.run()
	// The word's round count is its slowest lane's.
	rounds := 0
	if res != nil {
		for i := range res.Lanes {
			rounds = max(rounds, res.Lanes[i].Metrics.Rounds)
		}
	}
	sp.finish(rounds, err)
	return res, err
}

// slicedCrash is one lane's crash event in engine form, sorted by
// (round, node, lane) so the round loop consumes events with a cursor.
type slicedCrash struct {
	round int32
	node  int32
	keep  int32 // -1 keeps the whole outbox
	lane  uint8
}

// nodeLanes is a reusable (node, lane mask) pair for the per-round
// crashed-now list.
type nodeLanes struct {
	node  int32
	lanes uint64
}

// slicedState is the sliced engine's arena: per-node lane words, the
// staged/scattered message buffers, the vertical traffic counter and
// the per-lane result arrays, all recycled across runs.
type slicedState struct {
	cfg   SlicedConfig
	sys   SlicedSystem
	sizer SlicedSizer // non-nil iff sys sizes its own payloads
	n     int
	lanes int
	all   uint64 // mask of configured lanes

	active  uint64 // lanes still running on the sliced path
	escaped uint64
	settled uint64

	// Link level. Filters that declare a kernel are compiled into kern;
	// the rest sit in filters (nil entries elsewhere) with the per-lane
	// delay bound each declared, and filtered is their lane mask. linked
	// is every lane with a link filter of either kind.
	kern         laneKernels
	filters      [64]LinkFilter
	laneMaxDelay [64]int
	filtered     uint64
	linked       uint64
	maxDelay     int
	ring         *delayRing[SlicedMsg]

	crashes  []slicedCrash
	crashCur int

	crashedL []uint64 // per node: lanes in which the node crashed
	haltedL  []uint64 // per node: lanes in which the node halted

	liveCount  [64]int32
	roundsDone [64]int

	staged     []SlicedMsg
	inbox      []SlicedMsg
	counts     []int32
	offs       []int32
	crashedNow []nodeLanes

	// Per-msg delay scratch: the lanes delaying it by k, per distance k.
	delayLanes []uint64

	// Metrics: the vertical per-lane message counter, flushed once per
	// round into the per-lane series.
	ctr         bitset.LaneCounter
	roundCounts [64]int64
	msgs        [64]int64
	bitsAcc     [64]int64 // per-lane payload bits, used iff sizer != nil
	perRound    [64][]int64
	haltedAt    [64][]int
	crashedSets [64]*bitset.Set

	lanesRes []LaneResult // its own allocation: a retained result pins it, not the arena
	res      SlicedResult
}

// reset (re)initializes the arena for a run, recycling every buffer a
// previous run grew — the same discipline as state.reset.
func (s *slicedState) reset(cfg SlicedConfig) error {
	sys := cfg.System
	if sys == nil {
		return errors.New("sim: sliced run requires a System")
	}
	n := sys.N()
	if n <= 0 {
		return errors.New("sim: sliced system has no nodes")
	}
	if cfg.Lanes <= 0 || cfg.Lanes > MaxLanes {
		return fmt.Errorf("sim: sliced Lanes must be in [1, 64], got %d", cfg.Lanes)
	}
	if cfg.MaxRounds <= 0 {
		return errors.New("sim: MaxRounds must be positive")
	}
	if len(cfg.Faults) != 0 && len(cfg.Faults) != cfg.Lanes {
		return fmt.Errorf("sim: got %d per-lane faults for %d lanes", len(cfg.Faults), cfg.Lanes)
	}
	s.cfg = cfg
	s.sys = sys
	s.sizer, _ = sys.(SlicedSizer)
	s.n = n
	s.lanes = cfg.Lanes
	s.all = bitset.LaneMask(cfg.Lanes)
	s.active = s.all
	s.escaped, s.settled = 0, 0

	s.kern.reset()
	s.filtered = 0
	s.maxDelay = 0
	s.crashes = s.crashes[:0]
	s.crashCur = 0
	s.filters = [64]LinkFilter{}
	s.laneMaxDelay = [64]int{}
	for lane := 0; lane < len(cfg.Faults); lane++ {
		f := cfg.Faults[lane]
		if f == nil {
			continue
		}
		cp, ok := f.(CrashPlan)
		if !ok {
			return fmt.Errorf("%w: lane %d fault %T does not declare CrashEvents", ErrNotSliceable, lane, f)
		}
		for _, e := range cp.CrashEvents() {
			if e.Node < 0 || e.Node >= n || e.Round < 0 {
				continue
			}
			keep := int32(e.Keep)
			if e.Keep < 0 {
				keep = -1
			}
			s.crashes = append(s.crashes, slicedCrash{round: int32(e.Round), node: int32(e.Node), keep: keep, lane: uint8(lane)})
		}
		if lf, ok := f.(LinkFilter); ok {
			d := lf.MaxDelay()
			if d < 0 {
				return fmt.Errorf("sim: link filter declares negative MaxDelay %d", d)
			}
			if d > s.maxDelay {
				s.maxDelay = d
			}
			if kf, ok := lf.(KernelFilter); ok && s.kern.add(lane, kf.LinkKernel(), d) {
				continue
			}
			s.filters[lane] = lf
			s.filtered |= uint64(1) << lane
			s.laneMaxDelay[lane] = d
		}
	}
	s.linked = s.filtered | s.kern.lanes
	slices.SortFunc(s.crashes, func(a, b slicedCrash) int {
		if a.round != b.round {
			return int(a.round - b.round)
		}
		if a.node != b.node {
			return int(a.node - b.node)
		}
		return int(a.lane) - int(b.lane)
	})
	s.ring = s.ring.recycle(s.maxDelay)
	s.delayLanes = growSlice(s.delayLanes, s.maxDelay+1)
	clear(s.delayLanes)

	s.crashedL = growSlice(s.crashedL, n)
	s.haltedL = growSlice(s.haltedL, n)
	clear(s.crashedL)
	clear(s.haltedL)
	s.liveCount = [64]int32{}
	s.roundsDone = [64]int{}

	s.ctr.Reset()
	s.roundCounts = [64]int64{}
	s.msgs = [64]int64{}
	s.bitsAcc = [64]int64{}
	for lane := 0; lane < cfg.Lanes; lane++ {
		s.liveCount[lane] = int32(n)
		s.perRound[lane] = growSlice(s.perRound[lane], cfg.MaxRounds)
		clear(s.perRound[lane])
		s.haltedAt[lane] = growSlice(s.haltedAt[lane], n)
		for i := range s.haltedAt[lane] {
			s.haltedAt[lane][i] = -1
		}
		if s.crashedSets[lane] == nil || s.crashedSets[lane].Len() != n {
			s.crashedSets[lane] = bitset.New(n)
		} else {
			s.crashedSets[lane].Clear()
		}
	}

	if s.lanesRes == nil {
		s.lanesRes = make([]LaneResult, 64)
	}

	s.staged = s.staged[:0]
	s.counts = growSlice(s.counts, n)
	s.offs = growSlice(s.offs, n+1)
	s.crashedNow = s.crashedNow[:0]
	return nil
}

// detach drops the arena's references into caller-owned objects (the
// system, the per-lane faults) so an idle pooled arena does not pin
// them; see state.detach.
func (s *slicedState) detach() {
	s.cfg = SlicedConfig{}
	s.sys = nil
	s.sizer = nil
	s.filters = [64]LinkFilter{}
}

func (s *slicedState) run() (*SlicedResult, error) {
	for r := 0; r < s.cfg.MaxRounds && s.active != 0; r++ {
		if err := s.round(r); err != nil {
			return nil, err
		}
	}
	return s.result(), nil
}

// settle retires a lane whose last live node crashed or halted during
// round r: the scalar engine would observe allDone at the top of round
// r+1, so the lane's round count is r+1.
func (s *slicedState) settle(lane, r int) {
	s.active &^= uint64(1) << lane
	s.settled |= uint64(1) << lane
	s.roundsDone[lane] = r + 1
}

// escape retires lanes to the scalar path: they leave active, their
// partial sliced state and metrics are discarded (the caller re-runs
// them scalar from scratch), and any of their bits still staged or in
// flight are inert because every delivery mask excludes inactive lanes.
func (s *slicedState) escape(m uint64) {
	s.escaped |= m
	s.active &^= m
}

// round executes one lock-step round across all active lanes, phase
// order exactly matching the scalar engine: sends, each node's delayed
// arrivals spliced ahead of its fresh segment, with node-level crash
// truncation and link-level verdicts on that segment; crash
// application, scatter, delivery, halt detection, metrics flush.
func (s *slicedState) round(r int) error {
	exec := s.active
	s.staged = s.staged[:0]
	var arrivals [][]SlicedMsg
	if s.ring != nil {
		arrivals = s.ring.take(r)
	}

	// The crash events entering this round, sorted by node: consumed by
	// a cursor inside the send loop below.
	evLo := s.crashCur
	for s.crashCur < len(s.crashes) && int(s.crashes[s.crashCur].round) == r {
		s.crashCur++
	}
	evs := s.crashes[evLo:s.crashCur]
	evCur := 0
	s.crashedNow = s.crashedNow[:0]
	s.kern.beginRound(r)

	// Send phase: the node's delayed arrivals — each run's prefix from
	// node, oldest run first, so the buffer stays sorted by sender and
	// then by send round — then one SlicedSend per node with any alive
	// lane; the node's crash events truncate per-lane keep prefixes of
	// that fresh segment, its traffic is tallied post-crash pre-filter
	// (the scalar accounting point), and link verdicts split its words.
	for node := 0; node < s.n; node++ {
		for i, run := range arrivals {
			j := 0
			for j < len(run) && int(run[j].From) == node {
				j++
			}
			if j > 0 {
				s.staged = append(s.staged, run[:j]...)
				arrivals[i] = run[j:]
			}
		}
		am := s.active &^ s.crashedL[node] &^ s.haltedL[node]
		start := len(s.staged)
		if am != 0 {
			var esc uint64
			s.staged, esc = s.sys.SlicedSend(r, node, am, s.staged)
			if esc &= am; esc != 0 {
				s.escape(esc)
				am &^= esc
			}
			if err := s.sanitizeSegment(node, s.staged[start:], am); err != nil {
				return err
			}
		}
		var crashMask uint64
		for evCur < len(evs) && int(evs[evCur].node) < node {
			evCur++
		}
		for evCur < len(evs) && int(evs[evCur].node) == node {
			e := evs[evCur]
			evCur++
			b := uint64(1) << e.lane
			if am&b == 0 || crashMask&b != 0 {
				// The lane is already settled, escaped, crashed or
				// halted at this node — the scalar engine would never
				// have consulted the fault for it.
				continue
			}
			if e.keep >= 0 {
				truncateLanePrefix(s.staged[start:], b, int(e.keep))
			}
			crashMask |= b
		}
		if crashMask != 0 {
			s.crashedNow = append(s.crashedNow, nodeLanes{node: int32(node), lanes: crashMask})
		}
		seg := s.staged[start:]
		s.tally(seg, exec)
		if s.linked != 0 && len(seg) > 0 {
			if err := s.filterSegment(r, seg); err != nil {
				return err
			}
		}
	}

	// Apply this round's crashes after the whole send phase, like the
	// scalar engine: a node crashing at round r still received nothing
	// and delivers nothing this round.
	for _, c := range s.crashedNow {
		s.crashedL[c.node] |= c.lanes
		m := c.lanes
		for m != 0 {
			lane := bits.TrailingZeros64(m)
			m &= m - 1
			s.crashedSets[lane].Add(int(c.node))
			if s.liveCount[lane]--; s.liveCount[lane] == 0 {
				s.settle(lane, r)
			}
		}
	}

	s.place()

	// Deliver phase, in node order.
	for node := 0; node < s.n; node++ {
		am := s.active &^ s.crashedL[node] &^ s.haltedL[node]
		if am == 0 {
			continue
		}
		esc := s.sys.SlicedDeliver(r, node, am, s.inboxOf(node))
		if esc &= am; esc != 0 {
			s.escape(esc)
			am &^= esc
		}
		if newHalt := s.sys.HaltedLanes(node) & am; newHalt != 0 {
			s.haltedL[node] |= newHalt
			m := newHalt
			for m != 0 {
				lane := bits.TrailingZeros64(m)
				m &= m - 1
				s.haltedAt[lane][node] = r
				if s.liveCount[lane]--; s.liveCount[lane] == 0 {
					s.settle(lane, r)
				}
			}
		}
	}

	// Metrics flush: the vertical counter materializes this round's
	// per-lane message counts for the lanes that executed the round.
	s.ctr.Flush(&s.roundCounts)
	for m := exec; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		c := s.roundCounts[lane]
		s.roundCounts[lane] = 0
		s.msgs[lane] += c
		s.perRound[lane][r] = c
	}
	return nil
}

// tally counts a sender's post-crash segment into the round's traffic,
// one run at a time: consecutive messages that agree on tag, counted
// lanes and payload bits are a multicast's fan-out — the same payload
// to different destinations — so the lane counter and the sizer are
// charged once for the run with its length, not once per message. The
// sizer sees the run's first message with To poisoned, which holds it
// to the SlicedSizer contract.
func (s *slicedState) tally(seg []SlicedMsg, exec uint64) {
	for i := 0; i < len(seg); {
		head := seg[i]
		lanes, payload := head.Lanes&exec, head.Bits&exec
		j := i + 1
		for j < len(seg) && seg[j].Lanes&exec == lanes && seg[j].Tag == head.Tag && seg[j].Bits&exec == payload {
			j++
		}
		if lanes != 0 {
			s.ctr.AddN(lanes, j-i)
			if s.sizer != nil {
				head.To = -1
				s.sizer.AddSlicedBits(head, lanes, j-i, &s.bitsAcc)
			}
		}
		i = j
	}
}

// sanitizeSegment validates a node's freshly staged segment (the
// invariants the scalar state.scan checks) and confines every lane bit
// to the lanes the node was allowed to send in.
func (s *slicedState) sanitizeSegment(node int, seg []SlicedMsg, am uint64) error {
	for i := range seg {
		m := &seg[i]
		if int(m.From) != node {
			return fmt.Errorf("sim: sliced node %d forged sender %d", node, m.From)
		}
		if m.To < 0 || int(m.To) >= s.n {
			return fmt.Errorf("sim: sliced node %d addressed invalid node %d", node, m.To)
		}
		if int(m.To) == node {
			return fmt.Errorf("sim: sliced node %d sent to itself", node)
		}
		m.Lanes &= am
		m.Bits &= m.Lanes
	}
	return nil
}

// truncateLanePrefix clears lane b from every message of seg beyond
// that lane's first keep messages — the midway-multicast interruption,
// per lane.
func truncateLanePrefix(seg []SlicedMsg, b uint64, keep int) {
	cnt := 0
	for i := range seg {
		if seg[i].Lanes&b == 0 {
			continue
		}
		if cnt++; cnt > keep {
			seg[i].Lanes &^= b
			seg[i].Bits &^= b
		}
	}
}

// filterSegment routes a node's staged segment through the link level:
// for each message, lanes without a filter deliver as-is, the kernels
// answer for all of their lanes in one call, and each remaining
// filtered lane's FilterLink verdict is validated like the scalar
// engine's; a lane's bit then stays in the deliver-now mask, is
// dropped, or parks in the ring at distance k.
func (s *slicedState) filterSegment(r int, seg []SlicedMsg) error {
	for i := range seg {
		m := &seg[i]
		if m.Lanes&s.linked == 0 {
			continue
		}
		now := m.Lanes &^ s.filtered
		var late uint64
		if m.Lanes&s.kern.lanes != 0 {
			var drop uint64
			drop, late = s.kern.split(r, m.From, m.To, m.Lanes, s.delayLanes)
			now &^= drop
		}
		if fl := m.Lanes & s.filtered; fl != 0 {
			env := Envelope{From: NodeID(m.From), To: NodeID(m.To)}
			for w := fl; w != 0; w &= w - 1 {
				lane := bits.TrailingZeros64(w)
				b := uint64(1) << lane
				env.Payload = Bit(m.Bits&b != 0)
				v := s.filters[lane].FilterLink(r, env)
				switch {
				case v == Deliver:
					now |= b
				case v == Drop:
					// Lost in the network.
				case v < Drop:
					return fmt.Errorf("sim: link fault returned invalid verdict %d", int(v))
				default:
					k := int(v)
					if k > s.laneMaxDelay[lane] {
						return fmt.Errorf("sim: link fault delayed an envelope by %d rounds, beyond its MaxDelay of %d", k, s.laneMaxDelay[lane])
					}
					s.delayLanes[k] |= b
					late |= b
				}
			}
		}
		if late != 0 {
			now &^= late
			for k := 1; k <= s.maxDelay; k++ {
				if l := s.delayLanes[k]; l != 0 {
					s.ring.push(k, SlicedMsg{From: m.From, To: m.To, Lanes: l, Bits: m.Bits & l, Tag: m.Tag})
				}
				s.delayLanes[k] = 0
			}
		}
		m.Lanes = now
		m.Bits &= now
	}
	return nil
}

// place scatters the staged buffer into per-destination inbox segments
// with a counting sort on To — the sliced mirror of scratch.place.
// Messages whose lane mask emptied (dropped, delayed, truncated) are
// skipped rather than compacted.
func (s *slicedState) place() {
	counts := s.counts[:s.n]
	clear(counts)
	for i := range s.staged {
		if s.staged[i].Lanes != 0 {
			counts[s.staged[i].To]++
		}
	}
	offs := s.offs[:s.n+1]
	offs[0] = 0
	for i := 0; i < s.n; i++ {
		offs[i+1] = offs[i] + counts[i]
	}
	s.inbox = growSlice(s.inbox, int(offs[s.n]))
	// Reuse counts as per-destination cursors; the scatter is stable,
	// preserving the sender-sorted order within each inbox.
	copy(counts, offs[:s.n])
	for i := range s.staged {
		m := &s.staged[i]
		if m.Lanes == 0 {
			continue
		}
		p := counts[m.To]
		counts[m.To] = p + 1
		s.inbox[p] = *m
	}
}

func (s *slicedState) inboxOf(id int) []SlicedMsg {
	return s.inbox[s.offs[id]:s.offs[id+1]]
}

// result fills the arena-owned result envelope; see SlicedResult for
// the aliasing contract.
func (s *slicedState) result() *SlicedResult {
	for lane := 0; lane < s.lanes; lane++ {
		lr := &s.lanesRes[lane]
		*lr = LaneResult{}
		b := uint64(1) << lane
		switch {
		case s.escaped&b != 0:
			lr.Escaped = true
		case s.settled&b == 0:
			lr.Err = fmt.Errorf("%w (MaxRounds=%d)", ErrNoTermination, s.cfg.MaxRounds)
		default:
			// Without a SlicedSizer, payloads are single bits and
			// bits == messages; a sizer accumulated its own totals.
			bits := s.msgs[lane]
			if s.sizer != nil {
				bits = s.bitsAcc[lane]
			}
			lr.Metrics = Metrics{
				Rounds:           s.roundsDone[lane],
				Messages:         s.msgs[lane],
				Bits:             bits,
				PerRoundMessages: s.perRound[lane][:s.roundsDone[lane]],
			}
			lr.Crashed = s.crashedSets[lane]
			lr.HaltedAt = s.haltedAt[lane]
		}
	}
	s.res = SlicedResult{Lanes: s.lanesRes[:s.lanes], Escaped: s.escaped}
	return &s.res
}
