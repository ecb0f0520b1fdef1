package sim

import (
	"strings"
	"testing"
)

// badFilter is a LinkFilter returning a fixed (possibly contract-
// violating) verdict, with a declared delay bound.
type badFilter struct {
	NoFailures
	verdict Verdict
	bound   int
}

func (f badFilter) FilterLink(int, Envelope) Verdict { return f.verdict }
func (f badFilter) MaxDelay() int                    { return f.bound }

type pingPayload struct{}

func (pingPayload) SizeBits() int { return 1 }

// pinger sends one message per round for a few rounds, then halts.
type pinger struct {
	id, n  int
	rounds int
	out    [1]Envelope
}

func (p *pinger) Send(round int) []Envelope {
	p.out[0] = Envelope{From: p.id, To: (p.id + 1) % p.n, Payload: pingPayload{}}
	return p.out[:]
}
func (p *pinger) Deliver(int, []Envelope) { p.rounds++ }
func (p *pinger) Halted() bool            { return p.rounds >= 4 }

func pingConfig(n int, fault LinkFault) Config {
	ps := make([]Protocol, n)
	for i := range ps {
		ps[i] = &pinger{id: i, n: n}
	}
	return Config{Protocols: ps, Fault: fault, MaxRounds: 16}
}

// TestLinkFilterContractViolations pins that a misbehaving LinkFilter
// fails the run with a descriptive error instead of panicking or
// silently mis-scheduling: verdicts below Drop are invalid, and delays
// beyond the declared MaxDelay are rejected whether or not a ring
// exists (MaxDelay 0 allocates none).
func TestLinkFilterContractViolations(t *testing.T) {
	cases := []struct {
		name    string
		fault   LinkFilter
		wantErr string
	}{
		{"invalid-negative-verdict", badFilter{verdict: Verdict(-7), bound: 0}, "invalid verdict"},
		{"invalid-negative-verdict-with-ring", badFilter{verdict: Verdict(-2), bound: 3}, "invalid verdict"},
		{"delay-beyond-declared-zero-bound", badFilter{verdict: Verdict(1), bound: 0}, "beyond its MaxDelay"},
		{"delay-beyond-declared-bound", badFilter{verdict: Verdict(5), bound: 2}, "beyond its MaxDelay"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(pingConfig(4, tc.fault)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
		})
	}
	// A negative MaxDelay is rejected at configuration time.
	if _, err := Run(pingConfig(4, badFilter{verdict: Deliver, bound: -1})); err == nil || !strings.Contains(err.Error(), "negative MaxDelay") {
		t.Fatalf("negative MaxDelay: err = %v", err)
	}
}

// TestDelayRingRecycles pins the ring's slot recycling: a verdict of
// exactly MaxDelay lands in a slot distinct from the one drained this
// round, and the engine delivers everything a fixed filter delays.
func TestDelayRingRecycles(t *testing.T) {
	const n = 4
	res, err := Run(pingConfig(n, badFilter{verdict: Verdict(2), bound: 2}))
	if err != nil {
		t.Fatal(err)
	}
	// Every message is sent (and counted); rounds advance past the
	// halting point even though all deliveries arrive 2 rounds late.
	if res.Metrics.Messages != int64(n*4) {
		t.Fatalf("messages = %d, want %d", res.Metrics.Messages, n*4)
	}
}
