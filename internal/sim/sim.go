// Package sim implements the synchronous message-passing system model
// of the paper (§2): n nodes, lock-step rounds, complete communication
// graph, crash or Byzantine failures, and two port models:
//
//   - multi-port: a node may send to and receive from any set of nodes
//     in one round;
//   - single-port: a node may send at most one message and poll at most
//     one in-port per round. Ports buffer messages and give no signal
//     (§2, §8), so polling an empty port wastes the round.
//
// Faults are injected through the pluggable link layer of linkfault.go:
// node-level crashes (including the §2 midway-multicast interruption)
// plus per-envelope omission, partition and bounded-delay models.
//
// The engine is deterministic: given the same protocols, fault layer
// and configuration it produces identical transcripts, which the tests
// use to cross-validate it against a plain reference engine.
//
// Two engines — this file's sequential one and the bit-sliced one
// (sliced.go) — share one run skeleton: every entry point is reset →
// loop → detach inside the same tracer bracket (span, arena.go).
//
// The hot path is allocation-free in steady state: inboxes are built in
// a reusable CSR-style workspace (scratch.go), single-port buffers are
// index-addressed rings (ports.go), and the metrics arrays are sized up
// front. A message has one form from outbox to inbox, the Envelope: a
// filter-free round reads each sender's outbox in place and copies its
// envelopes once, straight into the inbox segments of the receivers
// that will read them (not a dead one, nor one that promised to ignore
// them, see Sleeper), and a
// Runtime (arena.go) pools the whole engine state across runs, so
// repeated runs — sweeps, replications, benchmarks — are steady-state
// allocation-free end to end. See EXPERIMENTS.md for the benchmark
// harness that tracks this.
package sim

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"lineartime/internal/bitset"
	"lineartime/internal/obs"
)

// NodeID names a node; nodes are 0..N-1. (The paper uses 1..n; we use
// 0-based names so that "little nodes" are 0..5t-1 and the related-node
// relation is j ≡ i mod 5t.)
type NodeID = int

// Payload is the content of a message. SizeBits is the wire size used
// for the paper's bit-complexity accounting (§2 "Communication
// performance").
type Payload interface {
	SizeBits() int
}

// Envelope is one point-to-point message.
type Envelope struct {
	From, To NodeID
	Payload  Payload
}

// Protocol is the deterministic per-node state machine. The engine
// calls Send, then Deliver, then Halted once per round while the node
// is alive and not halted — in every round, unless every machine of the
// run is also a Sleeper and the run loop may fast-forward over quiet or
// steady rounds (see Sleeper).
type Protocol interface {
	// Send returns the messages the node transmits at the given round.
	// The engine reads the returned slice in place until the round's
	// Deliver phase begins: implementations may reuse it across rounds
	// and overwrite it from their Deliver on, but no other node's Send
	// may write it.
	Send(round int) []Envelope
	// Deliver hands the node all messages it receives in this round,
	// sorted by sender for determinism. The slice aliases engine
	// scratch memory that is overwritten as soon as Deliver returns;
	// implementations must not retain it.
	Deliver(round int, inbox []Envelope)
	// Halted reports whether the node has voluntarily halted. Halting
	// is irrevocable; halted nodes neither send nor receive.
	Halted() bool
}

// Poller is implemented by protocols running in the single-port model:
// in every round the node additionally chooses at most one in-port to
// poll. Returning ok=false skips polling for the round.
type Poller interface {
	Protocol
	Poll(round int) (from NodeID, ok bool)
}

// Sleeper is implemented by protocols that can tell when they next need
// attention, which lets the run loop jump over rounds whose outcome it
// already knows instead of polling every node every round, and when
// they will not read what they are delivered. It makes three promises;
// the first two are re-asked after every executed round:
//
// QuietUntil(round) = w: if nothing is delivered to the node in rounds
// [round, w), it sends nothing and does not halt in those rounds, and
// skipping their Send/Deliver/Halted calls altogether leaves it at round
// w in the state the calls (with empty inboxes) would have. Returning
// round (or less) means awake; a machine never has to wake itself on a
// delivery.
//
// RepeatUntil(round, last) = w, where last < round is the template: the
// last round the engine executed, which carried traffic. Every round in
// (last, round) either repeated the template or was quiet for every
// node; no crash was applied and nobody halted in them. The promise: if
// in every round of [round, w) the node is delivered exactly what it
// was delivered in last, it sends exactly what it sent in last, does
// not halt, and skipping the calls leaves it in the state the calls
// would have left it in. Returning round (or less) promises nothing. A
// local-probing round in which no set grew and nobody paused is such a
// fixed point (probe.Probing takes its instance round from its caller),
// and so is the same round of the next instance when the silent rounds
// between the two only rearm the automaton.
//
// Ignores(round) = true, asked after the Sends of an executed round: the
// node's Deliver(round, inbox) leaves it exactly as Deliver(round, nil)
// would. In a run that may skip (below), a node that makes the promise
// is delivered nil: the envelopes addressed to it are booked and
// observed but never placed in an inbox.
//
// Only the sequential engine's run loop skips, and only when every
// protocol is a Sleeper, the fault is a CrashPlan, the run is
// multi-port with no Byzantine set, and no message is parked in the
// delay ring. A declared crash round inside a quiet span is applied in
// passing — FilterSend with the victim's empty outbox, no machine
// stepped — rather than executed, and drops the template. Steady spans
// skip only without a link filter or an Observer, from a template in
// which nobody crashed or halted; they end before the first declared
// crash round of a live victim, and each round passed books the
// template's traffic again. Quiet and steady spans alternate until
// neither advances. Results, observer events and metrics are identical
// to the round-by-round run; a Stepper never skips.
type Sleeper interface {
	Protocol
	QuietUntil(round int) int
	RepeatUntil(round, last int) int
	Ignores(round int) bool
}

// Metrics aggregates the communication and time performance of a run,
// matching the paper's two metrics (§2). For Byzantine runs, Messages
// and Bits count only traffic sent by non-faulty nodes, with faulty
// traffic tallied separately (the paper's counting rule for §7).
type Metrics struct {
	Rounds      int
	Messages    int64
	Bits        int64
	ByzMessages int64
	ByzBits     int64
	// PerRoundMessages records non-faulty messages per round, for the
	// per-part breakdowns in EXPERIMENTS.md. Its length is the number
	// of rounds executed so far.
	PerRoundMessages []int64
	// PerPart buckets non-faulty messages by the label returned by
	// Config.PartLabeler, when one is installed. The paper's proofs
	// bound each algorithm part separately (Part 1 flood ≤ L·d, Part 2
	// probing ≤ L·d·γ, ...); this makes those bounds measurable.
	PerPart map[string]int64
}

// Config describes a run.
type Config struct {
	// Protocols holds one state machine per node; len(Protocols) = n.
	Protocols []Protocol
	// Fault is the fault-injection layer (linkfault.go): node-level
	// crashes via LinkFault, plus per-envelope omission / partition /
	// delay when the value also implements LinkFilter. Nil means
	// NoFailures.
	Fault LinkFault
	// Byzantine marks nodes whose traffic is excluded from the
	// non-faulty counters. Nil means none. (Byzantine behaviour itself
	// is expressed by giving those indices adversarial Protocols.)
	Byzantine *bitset.Set
	// MaxRounds caps the run; exceeding it returns ErrNoTermination.
	MaxRounds int
	// SinglePort selects the single-port model; every Protocol must
	// then implement Poller and send at most one message per round.
	SinglePort bool
	// PartLabeler optionally maps a round to the algorithm part it
	// belongs to (all nodes share the schedule, so one function
	// covers the system); when set, Metrics.PerPart is populated.
	PartLabeler func(round int) string
	// Observer optionally receives the run's events (messages as they
	// are sent, crashes, halts). Sequential engine only; observers see
	// events in deterministic order.
	Observer Observer
	// Tracer optionally receives stage-level timings (setup, rounds)
	// and the run outcome. Unlike Observer it works on both engines,
	// and the engines' steady state stays allocation-free with one
	// installed (obs.EngineTracer uses pre-registered handles). Nil
	// disables tracing at the cost of a branch.
	Tracer obs.RunTracer
}

// Observer receives engine events during a sequential run.
type Observer interface {
	// OnMessage fires at send time for every message the node-level
	// fault admits (a link-level drop or delay still fires here: the
	// sender paid for the message).
	OnMessage(round int, env Envelope)
	// OnCrash fires when the fault layer crashes a node.
	OnCrash(round int, node NodeID)
	// OnHalt fires when a node halts voluntarily.
	OnHalt(round int, node NodeID)
}

// Result is the outcome of a run. Results returned by Run own their
// memory; results returned by a Runtime alias
// arena state and are valid only until the Runtime's next run — Clone
// detaches a copy.
type Result struct {
	Metrics Metrics
	// Crashed is the set of nodes the fault layer crashed.
	Crashed *bitset.Set
	// HaltedAt[i] is the round at which node i halted voluntarily, or
	// -1 if it crashed or never halted within the round budget.
	HaltedAt []int
}

// Clone returns a deep copy of the result that shares no memory with
// the run that produced it.
func (r *Result) Clone() *Result {
	c := &Result{Metrics: r.Metrics, HaltedAt: slices.Clone(r.HaltedAt)}
	c.Metrics.PerRoundMessages = slices.Clone(r.Metrics.PerRoundMessages)
	if r.Metrics.PerPart != nil {
		c.Metrics.PerPart = maps.Clone(r.Metrics.PerPart)
	}
	if r.Crashed != nil {
		c.Crashed = r.Crashed.Clone()
	}
	return c
}

// ErrNoTermination reports that some non-faulty node did not halt
// within Config.MaxRounds.
var ErrNoTermination = errors.New("sim: protocol did not terminate within MaxRounds")

// Run executes the configured system to completion on the sequential
// engine and returns metrics and fault bookkeeping.
func Run(cfg Config) (*Result, error) {
	return oneShot(func(rt *Runtime) (*Result, error) { return rt.Run(cfg) })
}

// Stepper drives a run one round at a time, for experiments that
// inspect protocol state between rounds (the lower-bound divergence
// measurements of §8 / Theorem 13). Every Step executes its round in
// full: a Stepper never fast-forwards over Sleepers' quiet or steady
// rounds.
type Stepper struct {
	st    *state
	round int
	done  bool
}

// NewStepper prepares a stepped run. Config.MaxRounds still caps the
// total number of Step calls.
func NewStepper(cfg Config) (*Stepper, error) {
	st := &state{}
	if err := st.reset(cfg); err != nil {
		return nil, err
	}
	return &Stepper{st: st}, nil
}

// Step executes one round. It returns done=true once every non-faulty
// node has halted (no round is executed in that case).
func (s *Stepper) Step() (done bool, err error) {
	if s.done || s.st.allDone() {
		s.done = true
		s.st.metrics.Rounds = s.round
		return true, nil
	}
	if s.round >= s.st.cfg.MaxRounds {
		return false, fmt.Errorf("%w (MaxRounds=%d)", ErrNoTermination, s.st.cfg.MaxRounds)
	}
	if err := s.st.round(s.round); err != nil {
		return false, err
	}
	s.round++
	return false, nil
}

type state struct {
	cfg Config
	n   int
	// fault is the node-level fault layer; filter, maxDelay and ring
	// are set only when the fault also acts on individual envelopes
	// (LinkFilter), so crash-only runs skip the link level entirely.
	fault    LinkFault
	filter   LinkFilter
	maxDelay int
	ring     *delayRing[Envelope]
	byz      []bool
	crashed  *bitset.Set
	haltedAt []int
	// live[id] is whether node id has neither crashed nor halted, and
	// pending counts the live non-Byzantine nodes: the engine's
	// per-round probes read these, kept by die.
	live    []bool
	pending int
	metrics Metrics
	scratch scratch
	// simulated counts the rounds of the run so far; PerRoundMessages
	// is trimmed to this length in result(). skipped is the part of it
	// the run loop fast-forwarded over without stepping any node, and
	// repeated the part of skipped that steady spans passed.
	simulated int
	skipped   int
	repeated  int
	// sleepers holds the Sleeper views of the protocols when the run
	// may fast-forward (see Sleeper), else it is empty; crashes is then
	// the fault's declared crash events on [0, n) × [0, ∞), sorted by
	// (round, node), and crashCur the first one not yet passed.
	sleepers []Sleeper
	crashes  []CrashEvent
	crashCur int
	// last is the run loop's last executed round — the template a steady
	// span repeats — and lastBits the bits booked in it; last is −1
	// before the first and after a crash applied in passing.
	last     int
	lastBits int64
	// label caches the PartLabeler result for the current round;
	// labelSet records whether it has been computed yet.
	label    string
	labelSet bool
	// perPart is the reusable backing map for Metrics.PerPart,
	// installed lazily by book.
	perPart map[string]int64
	// crashedNow is the reusable per-round crash list.
	crashedNow []NodeID
	// Single-port state: per-node in-port rings, per-node poll slot,
	// and the pre-asserted Poller views of the protocols.
	ports   []portSet
	spSlot  []Envelope
	pollers []Poller
	// res is the reusable result envelope; on a pooled Runtime it (and
	// the state-owned slices it references) is overwritten by the next
	// run.
	res Result
}

// reset (re)initializes the state for a run, recycling every buffer a
// previous run on the same arena grew: the CSR workspace, the delay
// ring, the single-port rings and their n-sized idx tables, the metrics
// arrays. After the first run of a given shape, subsequent resets touch
// no allocator.
func (st *state) reset(cfg Config) error {
	n := len(cfg.Protocols)
	if n == 0 {
		return errors.New("sim: no protocols")
	}
	if cfg.MaxRounds <= 0 {
		return errors.New("sim: MaxRounds must be positive")
	}
	fault := cfg.Fault
	if fault == nil {
		fault = NoFailures{}
	}
	st.cfg = cfg
	st.n = n
	st.fault = fault
	st.filter = nil
	st.maxDelay = 0
	if lf, ok := fault.(LinkFilter); ok {
		st.filter = lf
		switch d := lf.MaxDelay(); {
		case d < 0:
			return fmt.Errorf("sim: link filter declares negative MaxDelay %d", d)
		case d > 0:
			st.maxDelay = d
		}
	}
	st.ring = st.ring.recycle(st.maxDelay)
	st.byz = growSlice(st.byz, n)
	clear(st.byz)
	if cfg.Byzantine != nil {
		for id := 0; id < n; id++ {
			st.byz[id] = cfg.Byzantine.Contains(id)
		}
	}
	st.live = growSlice(st.live, n)
	st.pending = 0
	for id := range st.live {
		st.live[id] = true
		if !st.byz[id] {
			st.pending++
		}
	}
	if st.crashed == nil || st.crashed.Len() != n {
		st.crashed = bitset.New(n)
	} else {
		st.crashed.Clear()
	}
	st.haltedAt = growSlice(st.haltedAt, n)
	for i := range st.haltedAt {
		st.haltedAt[i] = -1
	}
	st.scratch.init(n)
	// Pre-size the per-round series to the round budget so the hot
	// path indexes instead of growing (and the Stepper does not
	// re-allocate every round); result() trims to the executed prefix.
	st.metrics = Metrics{PerRoundMessages: growSlice(st.metrics.PerRoundMessages[:0], cfg.MaxRounds)}
	clear(st.metrics.PerRoundMessages)
	if st.perPart != nil {
		clear(st.perPart)
	}
	st.simulated, st.skipped, st.repeated = 0, 0, 0
	st.resetSleepers()
	st.label, st.labelSet = "", false
	st.crashedNow = st.crashedNow[:0]
	if cfg.SinglePort {
		if len(st.ports) != n {
			st.ports = make([]portSet, n)
		} else {
			for i := range st.ports {
				st.ports[i].recycle()
			}
		}
		st.spSlot = growSlice(st.spSlot, n)
		st.pollers = growSlice(st.pollers, n)
		for i, p := range cfg.Protocols {
			poller, ok := p.(Poller)
			if !ok {
				return fmt.Errorf("sim: single-port run requires Poller protocols; node %d is %T", i, p)
			}
			st.pollers[i] = poller
		}
	}
	return nil
}

// resetSleepers decides whether this run may fast-forward and, if so,
// collects the Sleeper views and the declared crash events into the
// arena's reusable buffers. The first non-Sleeper machine ends the scan,
// so an ineligible run pays one failed type assertion. Events that can
// never fire — a node outside [0, n), a negative round — are dropped,
// as the sliced engine drops them.
func (st *state) resetSleepers() {
	st.sleepers = st.sleepers[:0]
	st.crashes, st.crashCur = st.crashes[:0], 0
	st.last, st.lastBits = -1, 0
	plan, ok := st.fault.(CrashPlan)
	if !ok || st.cfg.SinglePort || st.cfg.Byzantine != nil {
		return
	}
	for _, p := range st.cfg.Protocols {
		sl, ok := p.(Sleeper)
		if !ok {
			clear(st.sleepers)
			st.sleepers = st.sleepers[:0]
			return
		}
		st.sleepers = append(st.sleepers, sl)
	}
	for _, e := range plan.CrashEvents() {
		if e.Node >= 0 && e.Node < st.n && e.Round >= 0 {
			st.crashes = append(st.crashes, e)
		}
	}
	slices.SortFunc(st.crashes, func(a, b CrashEvent) int {
		if a.Round != b.Round {
			return a.Round - b.Round
		}
		return a.Node - b.Node
	})
}

func (s *state) alive(id NodeID) bool { return s.live[id] }

// die takes the live node id out of the run: it crashed or halted.
func (s *state) die(id NodeID) {
	s.live[id] = false
	if !s.byz[id] {
		s.pending--
	}
}

func (s *state) run() (*Result, error) {
	for r := 0; r < s.cfg.MaxRounds; r++ {
		if s.allDone() {
			s.metrics.Rounds = r
			return s.result(), nil
		}
		if len(s.sleepers) > 0 {
			var done bool
			if r, done = s.skip(r); done {
				s.metrics.Rounds = r
				return s.result(), nil
			}
			if r >= s.cfg.MaxRounds {
				break
			}
		}
		bits := s.metrics.Bits
		if err := s.round(r); err != nil {
			return nil, err
		}
		s.last, s.lastBits = r, s.metrics.Bits-bits
	}
	if s.allDone() {
		s.metrics.Rounds = s.cfg.MaxRounds
		return s.result(), nil
	}
	return nil, fmt.Errorf("%w (MaxRounds=%d)", ErrNoTermination, s.cfg.MaxRounds)
}

// skip returns the first round at or after r that has to run,
// alternating quiet and steady spans until neither advances: a steady
// span may end on a round that is quiet for every node, and the quiet
// span after it may end where the template repeats again. done reports
// that a crash applied in passing ended the run (see skipQuiet).
func (s *state) skip(r int) (next int, done bool) {
	for {
		if r, done = s.skipQuiet(r); done {
			return r, true
		}
		w := s.skipSteady(r)
		if w == r {
			return r, false
		}
		r = w
	}
}

// skipQuiet returns the first round at or after r that has to run: the
// earliest round some live node wakes in, or MaxRounds. The declared
// crash rounds before it are applied in passing: a quiet node's outbox
// is empty, so FilterSend(c, id, nil) is exactly the call the full
// round c would make, and a crash delivers nothing, so every survivor's
// promise still holds and none is re-asked. A crash applied drops the
// steady template: the victim's share of it is gone. done reports that
// a crash ended the run; the returned round is then the run's length.
// The rounds passed count as simulated.
func (s *state) skipQuiet(r int) (next int, done bool) {
	if s.ring != nil && !s.ring.empty() {
		return r, false
	}
	w := s.cfg.MaxRounds
	for id := 0; id < s.n && w > r; id++ {
		if s.alive(id) {
			w = min(w, s.sleepers[id].QuietUntil(r))
		}
	}
	for s.crashCur < len(s.crashes) && s.crashes[s.crashCur].Round < r {
		s.crashCur++
	}
	if w <= r {
		return r, false
	}
	for ; s.crashCur < len(s.crashes) && s.crashes[s.crashCur].Round < w; s.crashCur++ {
		e := s.crashes[s.crashCur]
		if !s.alive(e.Node) {
			continue
		}
		if _, crash := s.fault.FilterSend(e.Round, e.Node, nil); !crash {
			continue
		}
		s.crashed.Add(e.Node)
		s.die(e.Node)
		s.last = -1
		if s.cfg.Observer != nil {
			s.cfg.Observer.OnCrash(e.Round, e.Node)
		}
		if s.allDone() {
			w, done = e.Round+1, true
			break
		}
	}
	s.simulated += w - r
	s.skipped += w - r
	return w, done
}

// skipSteady returns the first round at or after r that has to run when
// the rounds from r on repeat the template s.last (see Sleeper): the
// earliest end of a live node's RepeatUntil, the first declared crash
// round of a live victim, or MaxRounds. The rounds between the template
// and r were repeated or quiet, and none applied a crash (skipQuiet
// drops the template when it does). The template must have carried
// traffic, crashed nobody and halted nobody — a node crashing in it sent
// a prefix there and sends nothing after — and the run must have no
// link filter (its verdicts hash the round) and no Observer. Each round
// passed books the template's messages, bits and part again and counts
// as simulated and repeated.
func (s *state) skipSteady(r int) int {
	last := s.last
	if last < 0 || s.filter != nil || s.cfg.Observer != nil || len(s.crashedNow) > 0 ||
		s.metrics.PerRoundMessages[last] == 0 {
		return r
	}
	w := s.cfg.MaxRounds
	for id := 0; id < s.n && w > r; id++ {
		if s.haltedAt[id] == last {
			return r
		}
		if s.alive(id) {
			w = min(w, s.sleepers[id].RepeatUntil(r, last))
		}
	}
	// skipQuiet moved crashCur past the rounds before r.
	for i := s.crashCur; i < len(s.crashes) && s.crashes[i].Round < w; i++ {
		if s.alive(s.crashes[i].Node) {
			w = s.crashes[i].Round
			break
		}
	}
	if w <= r {
		return r
	}
	msgs := s.metrics.PerRoundMessages[last]
	for q := r; q < w; q++ {
		s.metrics.PerRoundMessages[q] = msgs
		if s.cfg.PartLabeler != nil {
			if label := s.cfg.PartLabeler(q); label != "" {
				s.metrics.PerPart[label] += msgs
			}
		}
	}
	s.metrics.Messages += msgs * int64(w-r)
	s.metrics.Bits += s.lastBits * int64(w-r)
	s.simulated += w - r
	s.skipped += w - r
	s.repeated += w - r
	return w
}

// allDone reports run completion: every non-faulty node has halted or
// crashed. Byzantine nodes never gate completion — the paper measures
// time until the non-faulty nodes halt (§2), and a malicious node
// could otherwise hold the run open forever.
func (s *state) allDone() bool { return s.pending == 0 }

func (s *state) round(r int) error {
	sc := &s.scratch
	sc.beginRound()
	s.label, s.labelSet = "", false
	single := s.cfg.SinglePort
	obs := s.cfg.Observer

	// Delayed arrivals scheduled for this round, spliced into the
	// staged buffer sender by sender below.
	var arrivals [][]Envelope
	if s.ring != nil {
		arrivals = s.ring.take(r)
	}

	// Send phase. Collect each alive node's outbox, check and size it
	// in one walk, apply the node-level fault and book the surviving
	// envelopes' traffic, in sender order. Without a link filter the
	// walk counts the outbox per destination and the survivors are
	// recorded in place; with one, each sender's delayed arrivals are
	// staged ahead of its own sends (a dead sender's too), the filter's
	// verdicts stage, drop or park each of those, and staging counts what
	// it stages.
	counts := sc.counts
	if s.filter != nil {
		counts = nil
	}
	crashedNow := s.crashedNow[:0]
	for id := 0; id < s.n; id++ {
		s.injectArrivals(arrivals, id)
		if !s.alive(id) {
			continue
		}
		out := s.cfg.Protocols[id].Send(r)
		bits, err := s.scan(id, out, counts)
		if err != nil {
			return err
		}
		deliver, crash := s.fault.FilterSend(r, id, out)
		bits = recount(counts, out, deliver, bits)
		if crash {
			crashedNow = append(crashedNow, id)
			if obs != nil {
				obs.OnCrash(r, id)
			}
		}
		if obs != nil {
			for _, env := range deliver {
				obs.OnMessage(r, env)
			}
		}
		s.book(r, id, len(deliver), bits)
		if s.filter == nil {
			if len(deliver) > 0 {
				sc.outs = append(sc.outs, deliver)
			}
		} else if err := s.stageFiltered(r, deliver); err != nil {
			return err
		}
	}
	s.crashedNow = crashedNow
	for _, id := range crashedNow {
		s.crashed.Add(id)
		s.die(id)
	}
	if msgs := s.metrics.PerRoundMessages[r]; s.label != "" && msgs > 0 {
		// Once a round, not once a sender: the map assign showed.
		s.metrics.PerPart[s.label] += msgs
	}
	if s.filter != nil {
		sc.outs = append(sc.outs, sc.flat)
	}

	if single {
		// Deposit into the port rings; messages addressed to nodes
		// that are already dead (including this round's crashes) are
		// discarded — nothing will ever poll them out.
		for _, src := range sc.outs {
			for _, env := range src {
				if s.live[env.To] {
					s.ports[env.To].push(s.n, env)
				}
			}
		}
	} else {
		s.markUnread(r)
		sc.place()
	}

	// Deliver phase, in node order; inboxes are grouped and sorted by
	// sender. In the single-port model each alive node first polls at
	// most one in-port (polls only touch the node's own state, so
	// fusing poll and deliver preserves the all-deposits-first
	// semantics).
	for id := 0; id < s.n; id++ {
		if !s.alive(id) {
			continue
		}
		var inbox []Envelope
		if single {
			if from, wants := s.pollers[id].Poll(r); wants {
				if env, ok := s.ports[id].pop(from); ok {
					s.spSlot[id] = env
					inbox = s.spSlot[id : id+1 : id+1]
				}
			}
		} else {
			inbox = sc.inboxOf(id)
		}
		s.cfg.Protocols[id].Deliver(r, inbox)
		if s.cfg.Protocols[id].Halted() {
			s.haltedAt[id] = r
			s.die(id)
			if obs != nil {
				obs.OnHalt(r, id)
			}
		}
	}
	s.simulated++
	return nil
}

// markUnread marks for place the receivers of round-r envelopes that
// will not read them: a node that crashed or halted, which is delivered
// nothing, and in a run that may skip (see Sleeper) a live node that
// promised to ignore its inbox.
func (s *state) markUnread(r int) {
	counts := s.scratch.counts
	for id, c := range counts {
		if c > 0 && (!s.alive(id) || len(s.sleepers) > 0 && s.sleepers[id].Ignores(r)) {
			counts[id] = unread
		}
	}
}

// book counts one sender's msgs deliverable envelopes of the given size
// into the metrics, the Byzantine split hoisted per sender. The round's
// first non-empty outbox computes its part label and installs the
// reusable PerPart map. The link-filter path books everything at send
// time — a dropped or delayed message still cost its sender the
// bandwidth.
func (s *state) book(r int, from NodeID, msgs int, bits int64) {
	if msgs == 0 {
		return
	}
	if s.cfg.PartLabeler != nil && !s.labelSet {
		s.label = s.cfg.PartLabeler(r)
		s.labelSet = true
		if s.metrics.PerPart == nil {
			if s.perPart == nil {
				s.perPart = make(map[string]int64)
			}
			s.metrics.PerPart = s.perPart
		}
	}
	if s.byz[from] {
		s.metrics.ByzMessages += int64(msgs)
		s.metrics.ByzBits += bits
		return
	}
	s.metrics.Messages += int64(msgs)
	s.metrics.Bits += bits
	s.metrics.PerRoundMessages[r] += int64(msgs)
}

// detach drops the state's references into caller-owned objects — the
// config with its n protocols, the poller views, the recorded outboxes
// and every envelope still buffered — so an idle pooled arena does not
// pin a protocol system or its payloads in memory. The result envelope
// and its slices are untouched (callers may still read them until the
// next run); the next reset repopulates everything cleared here.
func (s *state) detach() {
	s.cfg = Config{}
	s.fault = nil
	s.filter = nil
	clear(s.pollers)
	clear(s.spSlot)
	clear(s.sleepers)
	s.scratch.scrub()
	if s.ring != nil {
		s.ring.scrub()
	}
	for i := range s.ports {
		s.ports[i].recycle()
	}
}

// result fills the state-owned result envelope. On a pooled Runtime
// the envelope and the state-owned slices it references are
// overwritten by the next run; Clone detaches a copy.
func (s *state) result() *Result {
	s.res = Result{
		Metrics:  s.metrics,
		Crashed:  s.crashed,
		HaltedAt: s.haltedAt,
	}
	s.res.Metrics.PerRoundMessages = s.metrics.PerRoundMessages[:s.simulated]
	return &s.res
}
