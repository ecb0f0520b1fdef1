package link

import (
	"testing"

	"lineartime/internal/sim"
)

type bit struct{}

func (bit) SizeBits() int { return 1 }

// chatter sends one envelope to every other node each round until its
// horizon, recording every delivery with its arrival round.
type chatter struct {
	id, n, horizon int
	rounds         int
	got            []sim.Envelope
	gotRound       []int
	out            []sim.Envelope
}

func (c *chatter) Send(round int) []sim.Envelope {
	c.out = c.out[:0]
	for to := 0; to < c.n; to++ {
		if to != c.id {
			c.out = append(c.out, sim.Envelope{From: c.id, To: to, Payload: bit{}})
		}
	}
	return c.out
}

func (c *chatter) Deliver(round int, inbox []sim.Envelope) {
	for _, env := range inbox {
		c.got = append(c.got, env)
		c.gotRound = append(c.gotRound, round)
	}
	c.rounds++
}

func (c *chatter) Halted() bool { return c.rounds >= c.horizon }

func runChatter(t *testing.T, n, horizon int, fault sim.LinkFault) ([]*chatter, *sim.Result) {
	t.Helper()
	cs := make([]*chatter, n)
	ps := make([]sim.Protocol, n)
	for i := range ps {
		cs[i] = &chatter{id: i, n: n, horizon: horizon}
		ps[i] = cs[i]
	}
	res, err := sim.Run(sim.Config{Protocols: ps, Fault: fault, MaxRounds: horizon + 8})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return cs, res
}

func TestOmissionRateExtremes(t *testing.T) {
	const n, horizon = 8, 6
	sent := int64(n * (n - 1) * horizon)

	_, res := runChatter(t, n, horizon, NewOmission(0, 7))
	if res.Metrics.Messages != sent {
		t.Fatalf("rate 0: %d messages counted, want %d", res.Metrics.Messages, sent)
	}
	cs, res := runChatter(t, n, horizon, NewOmission(1, 7))
	// Senders still pay for lost traffic...
	if res.Metrics.Messages != sent {
		t.Fatalf("rate 1: %d messages counted, want %d", res.Metrics.Messages, sent)
	}
	// ...but nothing arrives.
	for _, c := range cs {
		if len(c.got) != 0 {
			t.Fatalf("rate 1: node %d received %d envelopes", c.id, len(c.got))
		}
	}
}

func TestOmissionIntermediateRateLosesSome(t *testing.T) {
	const n, horizon = 10, 8
	cs, _ := runChatter(t, n, horizon, NewOmission(0.3, 11))
	delivered := 0
	for _, c := range cs {
		delivered += len(c.got)
	}
	sent := n * (n - 1) * horizon
	if delivered == 0 || delivered == sent {
		t.Fatalf("rate 0.3 delivered %d of %d, want strictly between", delivered, sent)
	}
	frac := float64(delivered) / float64(sent)
	if frac < 0.5 || frac > 0.9 {
		t.Fatalf("rate 0.3 delivered fraction %.2f, want ≈0.7", frac)
	}
}

func TestOmissionDeterministicAcrossRuns(t *testing.T) {
	const n, horizon = 9, 7
	a, _ := runChatter(t, n, horizon, NewOmission(0.4, 3))
	b, _ := runChatter(t, n, horizon, NewOmission(0.4, 3))
	for i := range a {
		if len(a[i].got) != len(b[i].got) {
			t.Fatalf("node %d: %d vs %d deliveries across identical runs", i, len(a[i].got), len(b[i].got))
		}
	}
}

func TestPartitionWindowAndHealing(t *testing.T) {
	const n, horizon = 6, 8
	const start, end, cut = 2, 5, 3
	cs, _ := runChatter(t, n, horizon, NewPartition(start, end, cut))
	for _, c := range cs {
		for k, env := range c.got {
			r := c.gotRound[k]
			crossing := (env.From < cut) != (c.id < cut)
			if crossing && r >= start && r < end {
				t.Fatalf("node %d received cross-cut envelope from %d at round %d inside the window", c.id, env.From, r)
			}
		}
		// Outside the window every link works: count arrivals per round.
		perRound := make(map[int]int)
		for _, r := range c.gotRound {
			perRound[r]++
		}
		for r := 0; r < horizon; r++ {
			want := n - 1
			if r >= start && r < end {
				want = cut - 1
				if c.id >= cut {
					want = n - cut - 1
				}
			}
			if perRound[r] != want {
				t.Fatalf("node %d round %d: %d arrivals, want %d", c.id, r, perRound[r], want)
			}
		}
	}
}

func TestDelayBoundedAndLossless(t *testing.T) {
	const n, horizon, d = 6, 10, 3
	cs, _ := runChatter(t, n, horizon, NewDelay(d, 5))
	// Every node halts at its horizon; messages still in flight at the
	// end are lost, so only count arrivals from sends before the tail.
	total := 0
	for _, c := range cs {
		total += len(c.got)
	}
	// All messages sent in rounds [0, horizon-d) must have arrived.
	minArrived := n * (n - 1) * (horizon - d)
	if total < minArrived {
		t.Fatalf("%d deliveries, want at least %d", total, minArrived)
	}
	// A zero-bound delay is the identity.
	cs0, _ := runChatter(t, n, horizon, NewDelay(0, 5))
	for _, c := range cs0 {
		if len(c.got) != (n-1)*horizon {
			t.Fatalf("d=0: node %d received %d, want %d", c.id, len(c.got), (n-1)*horizon)
		}
	}
}

func TestDelayInboxStaysSenderSorted(t *testing.T) {
	const n, horizon, d = 8, 9, 2
	cs, _ := runChatter(t, n, horizon, NewDelay(d, 9))
	for _, c := range cs {
		last := -1
		lastRound := -1
		for k, env := range c.got {
			if c.gotRound[k] != lastRound {
				last, lastRound = -1, c.gotRound[k]
			}
			if env.From < last {
				t.Fatalf("node %d round %d: inbox out of sender order", c.id, lastRound)
			}
			last = env.From
		}
	}
}
