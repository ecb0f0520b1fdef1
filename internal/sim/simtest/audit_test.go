package simtest_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"lineartime/internal/consensus"
	"lineartime/internal/gossip"
	"lineartime/internal/sim"
	"lineartime/internal/sim/simtest"
)

// TestEventLogComparesPayloadsByValue: two identical gossip runs log
// equal streams. Gossip's extant and completion payloads are pointers
// to snapshots, which a log keyed on %v would record by address.
func TestEventLogComparesPayloadsByValue(t *testing.T) {
	top, err := consensus.NewTopology(40, 8, consensus.TopologyOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	run := func() []simtest.Event {
		ps := make([]sim.Protocol, top.N)
		for i := range ps {
			ps[i] = gossip.New(i, top, gossip.Rumor(100+i))
		}
		log := &simtest.EventLog{}
		if _, err := sim.Run(sim.Config{Protocols: ps, MaxRounds: top.Schedule.Gossip + 4, Observer: log}); err != nil {
			t.Fatal(err)
		}
		return log.Events
	}
	a, b := run(), run()
	if len(a) == 0 || !slices.Equal(a, b) {
		t.Fatalf("two identical gossip runs logged different streams (%d vs %d events)", len(a), len(b))
	}

	one, other := gossip.NewExtantSet(8), gossip.NewExtantSet(8)
	one.Update(3, 9)
	other.Update(3, 9)
	if simtest.Digest(gossip.ExtantPayload{Set: one}) != simtest.Digest(gossip.ExtantPayload{Set: other}) {
		t.Fatal("equal extant sets at two addresses digest differently")
	}
	other.Update(4, 9)
	if simtest.Digest(gossip.ExtantPayload{Set: one}) == simtest.Digest(gossip.ExtantPayload{Set: other}) {
		t.Fatal("different extant sets digest equally")
	}
	if simtest.Digest(sim.Bit(true)) == simtest.Digest(sim.Probe{Rumor: true}) {
		t.Fatal("payload types with equal fields digest equally")
	}
}

// echo sends one bit to its partner every round: false before round
// flip, true from it on. It halts after its Deliver of round halt and,
// before round flip, answers RepeatUntil with a fixed until — honestly
// or not.
type echo struct {
	id, flip, halt, until int
	out                   sim.Outbox
	halted                bool
}

func (e *echo) Send(round int) []sim.Envelope {
	return e.out.FanOut(e.id, []int{1 - e.id}, sim.Bit(round >= e.flip))
}

func (e *echo) Deliver(round int, _ []sim.Envelope) { e.halted = round >= e.halt }
func (e *echo) Halted() bool                        { return e.halted }
func (e *echo) QuietUntil(round int) int            { return round }
func (e *echo) Ignores(int) bool                    { return true }
func (e *echo) RepeatUntil(round, _ int) int {
	if round < e.flip {
		return max(round, e.until)
	}
	return round
}

// rester sends one bit to its partner in every round outside its rest
// [from, to), in which it is silent and says so: false before the rest,
// and after it the bit after. Asked in round to across the rest, it
// answers RepeatUntil with a fixed until — honestly when after is false
// — and promises nothing otherwise.
type rester struct {
	id, from, to, until int
	after               bool
	out                 sim.Outbox
}

func (r *rester) Send(round int) []sim.Envelope {
	if r.from <= round && round < r.to {
		return nil
	}
	return r.out.FanOut(r.id, []int{1 - r.id}, sim.Bit(round >= r.to && r.after))
}

func (r *rester) Deliver(int, []sim.Envelope) {}
func (r *rester) Halted() bool                { return false }
func (r *rester) Ignores(int) bool            { return true }
func (r *rester) QuietUntil(round int) int {
	if r.from <= round && round < r.to {
		return r.to
	}
	return round
}
func (r *rester) RepeatUntil(round, last int) int {
	if round == r.to && last < round-1 {
		return r.until
	}
	return round
}

// TestAuditorChecksRepeatPromises: the auditor flags a machine that,
// inside a span it promised to repeat and while its inbox repeats,
// sends something else or halts — and releases one whose inbox changed.
// Across a rest silent for every machine it asks with the last round
// that had traffic as the template, so a machine that lies only there is
// caught too.
func TestAuditorChecksRepeatPromises(t *testing.T) {
	for _, c := range []struct {
		name string
		a, b sim.Sleeper
		want string // substring of the reported error; "" means none
	}{
		{name: "honest", a: &echo{id: 0, flip: 99, halt: 20, until: 20}, b: &echo{id: 1, flip: 99, halt: 20, until: 20}},
		{name: "sends another payload", a: &echo{id: 0, flip: 5, halt: 20, until: 20}, b: &echo{id: 1, flip: 99, halt: 20, until: 20},
			want: "node 0: sent 1 messages in round 5, not the 1 it promised to repeat until 20"},
		{name: "halts", a: &echo{id: 0, flip: 99, halt: 8, until: 20}, b: &echo{id: 1, flip: 99, halt: 20, until: 20},
			want: "node 0: halted in round 8 after promising to repeat until 20"},
		// Node 0 promises nothing and flips in round 5, so node 1's inbox
		// changes there and its promise no longer binds it in round 6.
		{name: "released by a new inbox", a: &echo{id: 0, flip: 5, halt: 20}, b: &echo{id: 1, flip: 6, halt: 20, until: 20}},
		{name: "honest across a rest", a: &rester{id: 0, from: 4, to: 10, until: 20}, b: &rester{id: 1, from: 4, to: 10, until: 20}},
		{name: "lies across a rest", a: &rester{id: 0, from: 4, to: 10, until: 20, after: true}, b: &rester{id: 1, from: 4, to: 10, until: 20},
			want: "node 0: sent 1 messages in round 10, not the 1 it promised to repeat until 20"},
	} {
		ps, check := simtest.Hide([]sim.Protocol{c.a, c.b})
		if _, err := sim.Run(sim.Config{Protocols: ps, MaxRounds: 30}); err != nil && !errors.Is(err, sim.ErrNoTermination) {
			t.Fatal(err)
		}
		err := check()
		switch {
		case c.want == "" && err != nil:
			t.Fatalf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Fatalf("%s: got %v, want %q", c.name, err, c.want)
		}
	}
}
