package sim

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"lineartime/internal/rng"
)

// The run-length accounting suite: slicedState.tally charges a sender's
// fan-out runs once each, and everything here holds it to the loop it
// replaced — one Add and one sizer call per message — and to the scalar
// engine, with payload sizes that depend on everything the SlicedSizer
// contract lets them depend on.

// runSize is the wire size of one payload: a function of the sender,
// the tag, the payload bit and the lane — never of the destination.
func runSize(from int32, tag uint32, bit bool, lane int) int64 {
	size := 1 + int64(from)%5 + 3*int64(tag%7) + int64(lane)%4
	if bit {
		size += 11
	}
	return size
}

// Lanes the generator perturbs one message at a time, so that masking
// them away (a settled lane, an escaped lane) or truncating them (a
// crashed lane's keep prefix) moves run boundaries: messages that
// differed only there fuse into one run, a run that had them is cut.
const (
	runSettledLane  = 7  // every node crashes at round 2
	runSendEscLane  = 3  // escapes from SlicedSend mid-round
	runDelivEscLane = 10 // escapes from SlicedDeliver
	runSpecialLanes = uint64(1)<<runSettledLane | 1<<runSendEscLane | 1<<runDelivEscLane | 1<<1 | 1<<4 | 1<<13
)

// runSegment is node's round-r outbox over all 64 lanes: a few
// multicasts — equal (tag, lanes, bits) to distinct destinations — whose
// messages are now and then perturbed in one special lane. Tags repeat
// across neighbouring multicasts, so some runs differ in lanes or bits
// only.
func runSegment(n, round, node int, salt uint64) []SlicedMsg {
	r := rng.New(salt ^ uint64(round)*0x9e3779b97f4a7c15 ^ uint64(node)*0xbf58476d1ce4e5b9)
	var seg []SlicedMsg
	for g, groups := 0, 1+r.Intn(3); g < groups; g++ {
		tag := uint32(r.Intn(3))
		lanes := r.Uint64() | r.Uint64()
		payload := r.Uint64() & lanes
		if g > 0 && r.Intn(3) == 0 {
			// Same lanes and tag as the previous multicast, other bits.
			prev := seg[len(seg)-1]
			tag, lanes, payload = prev.Tag, prev.Lanes, prev.Bits^(1<<uint(r.Intn(64)))&prev.Lanes
		}
		to := r.Intn(n)
		for f, fan := 0, 1+r.Intn(n-1); f < fan; f++ {
			if to = (to + 1) % n; to == node {
				to = (to + 1) % n
			}
			m := SlicedMsg{From: int32(node), To: int32(to), Lanes: lanes, Bits: payload, Tag: tag}
			if r.Intn(4) == 0 {
				flip := runSpecialLanes & (1 << uint(r.Intn(16)))
				m.Lanes ^= flip
				m.Bits &= m.Lanes
			}
			seg = append(seg, m)
		}
	}
	return seg
}

// runSys is the lane-parallel program: every node sends runSegment each
// round and halts after the last one. It sizes its payloads by runSize
// and records what the engine asked of it.
type runSys struct {
	n, rounds int
	salt      uint64
	halted    []uint64

	times     [64]int64 // Σ times per lane
	calls     int
	sawTo     bool   // a sizer call carried a destination
	maxTimes  int    // longest run charged at once
	tagStrip  uint32 // bits of Tag that are not payload (perMessage's serial)
	wantTimes int    // if > 0, every call must have exactly this multiplicity
	badTimes  bool
}

func newRunSys(n, rounds int, salt uint64) *runSys {
	return &runSys{n: n, rounds: rounds, salt: salt, halted: make([]uint64, n)}
}

func (s *runSys) N() int { return s.n }

func (s *runSys) SlicedSend(round, node int, active uint64, out []SlicedMsg) ([]SlicedMsg, uint64) {
	for _, m := range runSegment(s.n, round, node, s.salt) {
		m.Lanes &= active
		m.Bits &= active
		out = append(out, m)
	}
	var esc uint64
	if round == 3 && node == s.n/2 {
		esc = 1 << runSendEscLane
	}
	return out, esc
}

func (s *runSys) SlicedDeliver(round, node int, active uint64, inbox []SlicedMsg) uint64 {
	if round == s.rounds-1 {
		s.halted[node] |= active
	}
	if round == 1 && node == 1 {
		return 1 << runDelivEscLane
	}
	return 0
}

func (s *runSys) HaltedLanes(node int) uint64 { return s.halted[node] }

func (s *runSys) AddSlicedBits(m SlicedMsg, lanes uint64, times int, acc *[64]int64) {
	s.calls++
	s.sawTo = s.sawTo || m.To != -1
	s.maxTimes = max(s.maxTimes, times)
	s.badTimes = s.badTimes || (s.wantTimes > 0 && times != s.wantTimes)
	tag := m.Tag &^ s.tagStrip
	for w := lanes; w != 0; w &= w - 1 {
		lane := bits.TrailingZeros64(w)
		s.times[lane] += int64(times)
		acc[lane] += int64(times) * runSize(m.From, tag, m.Bits>>uint(lane)&1 != 0, lane)
	}
}

// perMessage defeats run detection without touching the traffic: every
// message of a segment gets a serial number in the high bits of its
// tag, so no two neighbours are equal and the engine accounts message
// by message — the reference the run-length path must reproduce.
type perMessage struct{ *runSys }

const perMessageSerialShift = 8

func (p perMessage) SlicedSend(round, node int, active uint64, out []SlicedMsg) ([]SlicedMsg, uint64) {
	start := len(out)
	out, esc := p.runSys.SlicedSend(round, node, active, out)
	for i := start; i < len(out); i++ {
		out[i].Tag |= uint32(i-start+1) << perMessageSerialShift
	}
	return out, esc
}

// runNode is lane's scalar replica of one runSys node.
type runNode struct {
	id, n, rounds, lane int
	salt                uint64
	halted              bool
}

type runPayload int64

func (p runPayload) SizeBits() int { return int(p) }

func (f *runNode) Send(round int) []Envelope {
	var out []Envelope
	for _, m := range runSegment(f.n, round, f.id, f.salt) {
		if m.Lanes>>uint(f.lane)&1 != 0 {
			size := runSize(m.From, m.Tag, m.Bits>>uint(f.lane)&1 != 0, f.lane)
			out = append(out, Envelope{From: f.id, To: NodeID(m.To), Payload: runPayload(size)})
		}
	}
	return out
}

func (f *runNode) Deliver(round int, _ []Envelope) { f.halted = f.halted || round == f.rounds-1 }

func (f *runNode) Halted() bool { return f.halted }

// tallyPerMessage is the accounting loop tally replaced — one counter
// Add and one sizer call per staged message — kept as its reference.
func (s *slicedState) tallyPerMessage(seg []SlicedMsg, exec uint64) {
	for i := range seg {
		if m := seg[i].Lanes & exec; m != 0 {
			s.ctr.Add(m)
			if s.sizer != nil {
				head := seg[i]
				head.To = -1
				s.sizer.AddSlicedBits(head, m, 1, &s.bitsAcc)
			}
		}
	}
}

func TestSlicedRunLengthAccountingMatchesPerMessage(t *testing.T) {
	const n, rounds, lanes, salt = 24, 7, 64, 0x51ced
	maxRounds := rounds + 4

	// Per-lane crash schedules whose keep prefixes end inside runs; the
	// settled lane loses every node at round 2.
	laneFault := func(lane int) LinkFault {
		switch {
		case lane == runSettledLane:
			events := make([]CrashEvent, n)
			for i := range events {
				events[i] = CrashEvent{Node: i, Round: 2, Keep: 1 + i%5}
			}
			return planCrash{events: events}
		case lane%3 == 1:
			r := rng.New(salt + uint64(lane))
			events := make([]CrashEvent, 0, n/3)
			for i := 0; i < n; i += 3 {
				events = append(events, CrashEvent{Node: i + r.Intn(3), Round: r.Intn(rounds), Keep: r.Intn(14) - 1})
			}
			return planCrash{events: events}
		default:
			return nil
		}
	}
	faults := make([]LinkFault, lanes)
	for lane := range faults {
		faults[lane] = laneFault(lane)
	}

	run := func(sys SlicedSystem) []LaneResult {
		res, err := RunSliced(SlicedConfig{System: sys, Lanes: lanes, MaxRounds: maxRounds, Faults: faults})
		if err != nil {
			t.Fatalf("sliced run: %v", err)
		}
		if want := uint64(1)<<runSendEscLane | 1<<runDelivEscLane; res.Escaped != want {
			t.Fatalf("Escaped = %#x, want %#x", res.Escaped, want)
		}
		return res.Lanes
	}
	runs := newRunSys(n, rounds, salt)
	got := run(runs)
	single := newRunSys(n, rounds, salt)
	single.wantTimes = 1
	single.tagStrip = ^uint32(1<<perMessageSerialShift - 1)
	want := run(perMessage{single})

	if runs.sawTo || single.sawTo {
		t.Fatal("the sizer was handed a destination")
	}
	if single.badTimes {
		t.Fatal("the per-message reference was charged a run")
	}
	if runs.maxTimes < 4 || runs.calls*3 > single.calls*2 {
		t.Fatalf("runs were not merged: %d sizer calls (longest run %d) against %d messages", runs.calls, runs.maxTimes, single.calls)
	}

	for lane := 0; lane < lanes; lane++ {
		tag := fmt.Sprintf("lane %d", lane)
		if got[lane].Escaped != want[lane].Escaped {
			t.Fatalf("%s: escaped on one path only", tag)
		}
		if got[lane].Escaped {
			continue
		}
		if got[lane].Err != nil || want[lane].Err != nil {
			t.Fatalf("%s: errors %v / %v", tag, got[lane].Err, want[lane].Err)
		}
		if !reflect.DeepEqual(got[lane].Metrics, want[lane].Metrics) {
			t.Fatalf("%s: run-length metrics diverged from per-message accounting:\nruns        %+v\nper message %+v", tag, got[lane].Metrics, want[lane].Metrics)
		}
		if runs.times[lane] != got[lane].Metrics.Messages || single.times[lane] != got[lane].Metrics.Messages {
			t.Fatalf("%s: Σ times = %d (runs) / %d (per message) for %d messages counted", tag, runs.times[lane], single.times[lane], got[lane].Metrics.Messages)
		}

		ps := make([]Protocol, n)
		for i := range ps {
			ps[i] = &runNode{id: i, n: n, rounds: rounds, lane: lane, salt: salt}
		}
		scalar, err := Run(Config{Protocols: ps, Fault: laneFault(lane), MaxRounds: maxRounds})
		if err != nil {
			t.Fatalf("%s: scalar run: %v", tag, err)
		}
		if !reflect.DeepEqual(scalar.Metrics, got[lane].Metrics) {
			t.Fatalf("%s: metrics diverged from the scalar engine:\nscalar %+v\nsliced %+v", tag, scalar.Metrics, got[lane].Metrics)
		}
		if !scalar.Crashed.Equal(got[lane].Crashed) || !reflect.DeepEqual(scalar.HaltedAt, got[lane].HaltedAt) {
			t.Fatalf("%s: crash set or HaltedAt diverged from the scalar engine", tag)
		}
	}
	if got[runSettledLane].Metrics.Rounds != 3 {
		t.Fatalf("settled lane ran %d rounds, want 3", got[runSettledLane].Metrics.Rounds)
	}

	// The same comparison one level down, against the loop tally
	// replaced: random segments, cut by keep prefixes in a few lanes and
	// by an exec mask that hides others.
	r := rng.New(salt)
	for trial := 0; trial < 300; trial++ {
		seg := runSegment(n, trial, trial%n, salt+1)
		for k := r.Intn(4); k > 0; k-- {
			truncateLanePrefix(seg, 1<<uint(r.Intn(64)), r.Intn(len(seg)+1))
		}
		exec := r.Uint64() | r.Uint64()
		if trial%5 == 0 {
			exec = ^uint64(0)
		}
		a, b := newRunSys(n, rounds, salt), newRunSys(n, rounds, salt)
		fast, slow := &slicedState{sizer: a}, &slicedState{sizer: b}
		fast.tally(seg, exec)
		slow.tallyPerMessage(seg, exec)
		var fastMsgs, slowMsgs [64]int64
		fast.ctr.Flush(&fastMsgs)
		slow.ctr.Flush(&slowMsgs)
		if fastMsgs != slowMsgs || fast.bitsAcc != slow.bitsAcc || a.times != b.times {
			t.Fatalf("trial %d: tally diverged from the per-message loop", trial)
		}
		if a.sawTo || a.times != fastMsgs {
			t.Fatalf("trial %d: sizer saw a destination or Σ times ≠ messages counted", trial)
		}
	}
}
