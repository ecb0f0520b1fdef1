package sim

import (
	"reflect"
	"testing"
)

// The delayRing boundary suite: delivery at exactly MaxDelay, slot
// recycling across a horizon longer than the ring, messages still in
// flight when the run completes, and the zero-delay degenerate cases.

// stampPayload carries its send round so receivers can verify exactly
// when each message was due.
type stampPayload struct{ round int }

func (stampPayload) SizeBits() int { return 32 }

// stamper is a two-role protocol: node 0 sends one stamped message to
// node 1 every round; every node runs exactly live rounds. Node 1
// records, per delivery round, the send rounds of what arrived.
type stamper struct {
	id, n, live int
	rounds      int
	arrivals    map[int][]int
	out         [1]Envelope
}

func (s *stamper) Send(round int) []Envelope {
	if s.id != 0 {
		return nil
	}
	s.out[0] = Envelope{From: 0, To: 1, Payload: stampPayload{round: round}}
	return s.out[:]
}

func (s *stamper) Deliver(round int, msgs []Envelope) {
	s.rounds++
	for i := range msgs {
		if p, ok := msgs[i].Payload.(stampPayload); ok {
			s.arrivals[round] = append(s.arrivals[round], p.round)
		}
	}
}

func (s *stamper) Halted() bool { return s.rounds >= s.live }

// delayAll delays every envelope by a fixed amount within its bound.
type delayAll struct {
	NoFailures
	by    int
	bound int
}

func (f delayAll) FilterLink(int, Envelope) Verdict { return DelayBy(f.by) }
func (f delayAll) MaxDelay() int                    { return f.bound }

func stamperRun(t *testing.T, live int, fault LinkFault) map[int][]int {
	t.Helper()
	ps := make([]Protocol, 2)
	receiver := &stamper{id: 1, n: 2, live: live, arrivals: map[int][]int{}}
	ps[0] = &stamper{id: 0, n: 2, live: live, arrivals: map[int][]int{}}
	ps[1] = receiver
	cfg := Config{Protocols: ps, Fault: fault, MaxRounds: live + 4}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	return receiver.arrivals
}

// TestDelayExactlyMaxDelay pins the upper boundary of the delay
// contract: a verdict of exactly MaxDelay is legal (the ring has a
// slot for it — off-by-one here would alias the current round's slot)
// and the message arrives exactly MaxDelay rounds after its send.
func TestDelayExactlyMaxDelay(t *testing.T) {
	const d, live = 3, 10
	arrivals := stamperRun(t, live, delayAll{by: d, bound: d})
	if len(arrivals) == 0 {
		t.Fatal("nothing arrived")
	}
	for r, sends := range arrivals {
		if len(sends) != 1 || sends[0] != r-d {
			t.Fatalf("round %d received sends %v, want [%d]", r, sends, r-d)
		}
	}
	if _, ok := arrivals[d]; !ok {
		t.Fatalf("round-0 send did not arrive at round %d: %v", d, arrivals)
	}
	for r := 0; r < d; r++ {
		if sends, ok := arrivals[r]; ok {
			t.Fatalf("round %d received %v before any message was due", r, sends)
		}
	}
}

// TestDelayRingWrapAroundAndEndOfHorizon runs long enough that every
// ring slot is recycled several times, and checks the two boundary
// behaviors at once: every slot reuse delivers exactly the send it
// holds (no aliasing between send r and send r+d+1, which share a
// slot), and messages whose arrival lies past the final round are
// lost — in flight at completion, like messages to crashed nodes.
func TestDelayRingWrapAroundAndEndOfHorizon(t *testing.T) {
	const d, live = 2, 8 // ring of d+1=3 slots, recycled ~3 times
	arrivals := stamperRun(t, live, delayAll{by: d, bound: d})
	total := 0
	for r, sends := range arrivals {
		total += len(sends)
		if len(sends) != 1 || sends[0] != r-d {
			t.Fatalf("round %d received sends %v, want [%d]", r, sends, r-d)
		}
	}
	// live sends happen (rounds 0..live-1); the last d of them arrive
	// after the final round and are lost.
	if want := live - d; total != want {
		t.Fatalf("received %d messages, want %d (%d sent, %d still in flight at completion)", total, want, live, d)
	}
}

// TestZeroDelayVerdicts pins the degenerate delay cases: DelayBy(0)
// and negative delays are the Deliver verdict, a filter with
// MaxDelay 0 that only delivers runs without a ring, and a filter
// with a positive bound that never delays still delivers every
// message in its send round.
func TestZeroDelayVerdicts(t *testing.T) {
	if DelayBy(0) != Deliver {
		t.Fatalf("DelayBy(0) = %d, want Deliver", DelayBy(0))
	}
	if DelayBy(-3) != Deliver {
		t.Fatalf("DelayBy(-3) = %d, want Deliver", DelayBy(-3))
	}
	const live = 6
	cases := []struct {
		name  string
		fault LinkFilter
	}{
		{"zero-bound-no-ring", delayAll{by: 0, bound: 0}},
		{"positive-bound-never-delays", delayAll{by: 0, bound: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			arrivals := stamperRun(t, live, tc.fault)
			total := 0
			for r, sends := range arrivals {
				total += len(sends)
				if len(sends) != 1 || sends[0] != r {
					t.Fatalf("round %d received sends %v, want same-round [%d]", r, sends, r)
				}
			}
			if total != live {
				t.Fatalf("received %d messages, want all %d (no delay, no loss)", total, live)
			}
		})
	}
}

// TestDelayRingUnit exercises the ring directly: take hands out a
// round's arrivals as MaxDelay runs, oldest first, each in push order;
// pushes of the round that took a bucket never land in it; recycled
// buckets keep their capacity; and recycle clears messages left in
// flight by a completed run.
func TestDelayRingUnit(t *testing.T) {
	ring := (*delayRing[Envelope])(nil).recycle(2) // 3 arrival rounds × 2 delays
	if got := len(ring.slots); got != 6 {
		t.Fatalf("ring of MaxDelay 2 has %d buckets, want 6", got)
	}
	froms := func(run []Envelope) []NodeID {
		var ids []NodeID
		for _, e := range run {
			ids = append(ids, e.From)
		}
		return ids
	}
	// Round 2 sends delay-2 messages from 0 and 3; round 3 delay-1
	// messages from 1 and 3 and delay-2 ones from 2. All but the last
	// arrive at round 4.
	ring.take(2)
	ring.push(2, Envelope{From: 0})
	ring.push(2, Envelope{From: 3})
	ring.take(3)
	ring.push(1, Envelope{From: 1})
	ring.push(1, Envelope{From: 3})
	ring.push(2, Envelope{From: 2}) // arrives at round 5
	runs := ring.take(4)
	if len(runs) != 2 || !reflect.DeepEqual(froms(runs[0]), []NodeID{0, 3}) || !reflect.DeepEqual(froms(runs[1]), []NodeID{1, 3}) {
		t.Fatalf("take(4) runs %v %v, want [0 3] (sent at 2) then [1 3] (sent at 3)", froms(runs[0]), froms(runs[1]))
	}
	// Round 4's pushes (arrivals 5 and 6) leave its runs intact.
	ring.push(1, Envelope{From: 4})
	ring.push(2, Envelope{From: 5})
	if !reflect.DeepEqual(froms(runs[0]), []NodeID{0, 3}) || !reflect.DeepEqual(froms(runs[1]), []NodeID{1, 3}) {
		t.Fatalf("round 4's pushes overwrote its runs: %v %v", froms(runs[0]), froms(runs[1]))
	}
	runs = ring.take(5)
	if !reflect.DeepEqual(froms(runs[0]), []NodeID{2}) || !reflect.DeepEqual(froms(runs[1]), []NodeID{4}) {
		t.Fatalf("take(5) runs %v %v, want [2] then [4]", froms(runs[0]), froms(runs[1]))
	}
	// A recycled bucket keeps its capacity: round 4's buckets refill
	// one lap later without growing.
	c := cap(ring.slots[4%3*2+1])
	ring.push(2, Envelope{From: 6}) // from round 5, arrives at 7 ≡ 4
	if got := cap(ring.slots[4%3*2+1]); got != c || c < 2 {
		t.Fatalf("recycled bucket capacity %d → %d", c, got)
	}
	if ring.recycle(2) != ring {
		t.Fatal("recycle replaced a ring whose window already fits")
	}
	if !ring.empty() {
		t.Fatal("recycle left messages in flight")
	}
	for r := 6; r < 9; r++ {
		for _, run := range ring.take(r) {
			if len(run) != 0 {
				t.Fatalf("recycled ring delivered %v at round %d", froms(run), r)
			}
		}
	}
	if ring.recycle(3) == ring || ring.recycle(0) != nil {
		t.Fatal("recycle kept a ring whose window does not fit, or made one for MaxDelay 0")
	}
}
