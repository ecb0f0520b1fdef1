// Package lowerbound turns the two adversary constructions of the
// Theorem 13 proof (§8) into executable experiments:
//
//   - Divergence: in the single-port model, if two executions start
//     from initial configurations differing at one node, then after i
//     rounds at most 3^i nodes can be in different states (each
//     diverged node changes at most one other node per execution per
//     round). Consensus must diverge everywhere, so Ω(log n) rounds
//     are necessary. DivergenceSeries measures the divergence profile
//     of a maximally-spreading protocol and checks it against 3^i.
//
//   - Isolation: an adversary with crash budget t can cut one node off
//     from the system for Ω(t) single-port rounds by crashing every
//     node it exchanges a message with (at most two per round), so
//     gossiping — which must transport the victim's rumor — needs
//     Ω(t) rounds. FirstContactRound measures how long the victim
//     stays information-isolated.
package lowerbound

import (
	"fmt"

	"lineartime/internal/crash"
	"lineartime/internal/scenario"
	"lineartime/internal/sim"
)

// chatter is a single-port protocol that spreads one bit as fast as
// the model allows: at round r every node holding the bit sends it to
// the node offset(r) ahead on the ring and everyone polls the port
// offset(r) behind. The doubling offset schedule (2^r) doubles the
// informed set every round — the natural maximal-divergence workload
// for the 3^i invariant; the persistent schedule cycles through all
// offsets forever, which the isolation experiment needs (a protocol
// that stops talking can be isolated for free).
type chatter struct {
	id, n      int
	value      bool
	horizon    int
	rounds     int
	persistent bool
}

func newChatter(id, n, horizon int, input bool) *chatter {
	return &chatter{id: id, n: n, value: input, horizon: horizon}
}

func newPersistentChatter(id, n, horizon int) *chatter {
	return &chatter{id: id, n: n, value: true, horizon: horizon, persistent: true}
}

func (c *chatter) offset(round int) int {
	if c.persistent {
		return round%(c.n-1) + 1
	}
	off := 1
	for i := 0; i < round && off < c.n; i++ {
		off <<= 1
	}
	return off % c.n
}

func (c *chatter) Send(round int) []sim.Envelope {
	if round >= c.horizon || !c.value {
		return nil
	}
	to := (c.id + c.offset(round)) % c.n
	if to == c.id {
		return nil
	}
	return []sim.Envelope{{From: c.id, To: to, Payload: sim.Bit(true)}}
}

func (c *chatter) Poll(round int) (sim.NodeID, bool) {
	if round >= c.horizon {
		return 0, false
	}
	from := (c.id - c.offset(round) + c.n) % c.n
	if from == c.id {
		return 0, false
	}
	return from, true
}

func (c *chatter) Deliver(round int, inbox []sim.Envelope) {
	for _, env := range inbox {
		if b, ok := env.Payload.(sim.Bit); ok && bool(b) {
			c.value = true
		}
	}
	c.rounds++
}

func (c *chatter) Halted() bool { return c.rounds >= c.horizon }

var (
	_ sim.Protocol = (*chatter)(nil)
	_ sim.Poller   = (*chatter)(nil)
)

// DivergenceSeries runs the two-execution experiment of the Ω(log n)
// argument: E0 starts with all inputs 0, E1 differs only at node 0.
// It returns diverged[i] = number of nodes whose states differ at the
// end of round i (i = 1..rounds).
func DivergenceSeries(n, rounds int) ([]int, error) {
	mk := func(seedOne bool) ([]sim.Protocol, []*chatter) {
		ps := make([]sim.Protocol, n)
		cs := make([]*chatter, n)
		for i := 0; i < n; i++ {
			cs[i] = newChatter(i, n, rounds, seedOne && i == 0)
			ps[i] = cs[i]
		}
		return ps, cs
	}
	ps0, cs0 := mk(false)
	ps1, cs1 := mk(true)

	s0, err := sim.NewStepper(sim.Config{Protocols: ps0, MaxRounds: rounds + 1, SinglePort: true})
	if err != nil {
		return nil, err
	}
	s1, err := sim.NewStepper(sim.Config{Protocols: ps1, MaxRounds: rounds + 1, SinglePort: true})
	if err != nil {
		return nil, err
	}

	series := make([]int, 0, rounds)
	for i := 0; i < rounds; i++ {
		d0, err := s0.Step()
		if err != nil {
			return nil, err
		}
		d1, err := s1.Step()
		if err != nil {
			return nil, err
		}
		diff := 0
		for j := 0; j < n; j++ {
			if cs0[j].value != cs1[j].value {
				diff++
			}
		}
		series = append(series, diff)
		if d0 && d1 {
			break
		}
	}
	return series, nil
}

// CheckDivergenceInvariant verifies diverged[i] ≤ 3^{i+1} for every
// measured round (the proof's invariant with our round indexing),
// returning the first violating round or -1.
func CheckDivergenceInvariant(series []int) int {
	bound := 3
	for i, d := range series {
		if d > bound {
			return i
		}
		if bound <= 1<<30 {
			bound *= 3
		}
	}
	return -1
}

// RoundsToFullDivergence returns the first measured round at which all
// n nodes diverged, or -1 if never. Consensus-style problems require
// full divergence, so this is an empirical lower bound on their
// single-port running time.
func RoundsToFullDivergence(series []int, n int) int {
	for i, d := range series {
		if d >= n {
			return i + 1
		}
	}
	return -1
}

// firstContact wraps a protocol and records the first round in which
// any message was delivered to it.
type firstContact struct {
	inner sim.Poller
	first int
}

func newFirstContact(inner sim.Poller) *firstContact {
	return &firstContact{inner: inner, first: -1}
}

func (f *firstContact) Send(round int) []sim.Envelope { return f.inner.Send(round) }
func (f *firstContact) Poll(round int) (sim.NodeID, bool) {
	return f.inner.Poll(round)
}
func (f *firstContact) Deliver(round int, inbox []sim.Envelope) {
	if len(inbox) > 0 && f.first < 0 {
		f.first = round
	}
	f.inner.Deliver(round, inbox)
}
func (f *firstContact) Halted() bool { return f.inner.Halted() }

var _ sim.Poller = (*firstContact)(nil)

// FirstContactRound runs the isolation experiment: n chatter nodes all
// seeded with the bit (so everyone tries to talk), a crash adversary
// with budget t isolating the victim. It returns the first round at
// which the victim received any message, or -1 if it stayed isolated
// for the whole horizon. The Ω(t) bound predicts a result ≥ t/2
// (the adversary spends at most two crashes per round).
func FirstContactRound(n, t, victim, horizon int) (int, error) {
	if victim < 0 || victim >= n {
		return 0, fmt.Errorf("lowerbound: victim %d out of range", victim)
	}
	ps := make([]sim.Protocol, n)
	var watched *firstContact
	for i := 0; i < n; i++ {
		c := newPersistentChatter(i, n, horizon)
		if i == victim {
			watched = newFirstContact(c)
			ps[i] = watched
		} else {
			ps[i] = c
		}
	}
	adv := crash.NewIsolate(victim, t)
	_, err := scenario.Execute(sim.Config{
		Protocols:  ps,
		Fault:      adv,
		MaxRounds:  horizon + 1,
		SinglePort: true,
	})
	if err != nil {
		return 0, err
	}
	return watched.first, nil
}
