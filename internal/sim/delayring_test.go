package sim

import (
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

// TestDelayRingUnit exercises the ring directly: modulo indexing,
// slot recycling with capacity kept, and reset clearing in-flight
// messages left by a completed run.
func TestDelayRingUnit(t *testing.T) {
	ring := (*delayRing[Envelope])(nil).recycle(2) // 3 slots
	if got := len(ring.slots); got != 3 {
		t.Fatalf("ring of MaxDelay 2 has %d slots, want 3", got)
	}
	a := Envelope{From: 1}
	b := Envelope{From: 2}
	ring.push(4, a) // slot 1
	ring.push(7, b) // slot 1 again, one lap later — coexists until round 4 is taken
	got := ring.take(4)
	if len(got) != 2 {
		t.Fatalf("take(4) = %d messages, want 2 (both slot-1 residents)", len(got))
	}
	if more := ring.take(7); len(more) != 0 {
		t.Fatalf("take(7) after recycling = %d messages, want 0", len(more))
	}
	// The recycled slot keeps its capacity for reuse.
	ring.push(10, a)
	if again := ring.take(10); len(again) != 1 || again[0].From != 1 {
		t.Fatalf("recycled slot take = %+v", again)
	}
	ring.push(2, b)
	if ring.recycle(2) != ring {
		t.Fatal("recycle replaced a ring whose window already fits")
	}
	for r := 0; r < 3; r++ {
		if left := ring.take(r); len(left) != 0 {
			t.Fatalf("reset left %d messages in slot %d", len(left), r)
		}
	}
}
