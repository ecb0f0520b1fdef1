package sim

import (
	"errors"
	"testing"

	"lineartime/internal/bitset"
)

// gatherer is a test protocol: every node sends its bit to node 0 in
// round 0; node 0 counts ones; everyone halts at the end of round 1.
type gatherer struct {
	id, n  int
	bit    Bit
	ones   int
	halted bool
}

func (g *gatherer) Send(round int) []Envelope {
	if round == 0 && g.id != 0 {
		return []Envelope{{From: g.id, To: 0, Payload: g.bit}}
	}
	return nil
}

func (g *gatherer) Deliver(round int, inbox []Envelope) {
	for _, env := range inbox {
		if b, ok := env.Payload.(Bit); ok && bool(b) {
			g.ones++
		}
	}
	if round >= 1 {
		g.halted = true
	}
}

func (g *gatherer) Halted() bool { return g.halted }

func newGatherers(n int) ([]Protocol, []*gatherer) {
	ps := make([]Protocol, n)
	gs := make([]*gatherer, n)
	for i := 0; i < n; i++ {
		g := &gatherer{id: i, n: n, bit: Bit(i%2 == 1)}
		ps[i], gs[i] = g, g
	}
	return ps, gs
}

func TestRunBasic(t *testing.T) {
	ps, gs := newGatherers(10)
	res, err := Run(Config{Protocols: ps, MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if gs[0].ones != 5 {
		t.Fatalf("node 0 counted %d ones, want 5", gs[0].ones)
	}
	if res.Metrics.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Metrics.Rounds)
	}
	if res.Metrics.Messages != 9 {
		t.Fatalf("messages = %d, want 9", res.Metrics.Messages)
	}
	if res.Metrics.Bits != 9 {
		t.Fatalf("bits = %d, want 9", res.Metrics.Bits)
	}
	for i, h := range res.HaltedAt {
		if h != 1 {
			t.Fatalf("node %d halted at %d, want 1", i, h)
		}
	}
}

func TestRunNoTermination(t *testing.T) {
	ps, _ := newGatherers(4)
	// Break halting by wrapping one protocol that never halts.
	ps[3] = &neverHalt{}
	_, err := Run(Config{Protocols: ps, MaxRounds: 5})
	if !errors.Is(err, ErrNoTermination) {
		t.Fatalf("err = %v, want ErrNoTermination", err)
	}
}

type neverHalt struct{}

func (*neverHalt) Send(int) []Envelope     { return nil }
func (*neverHalt) Deliver(int, []Envelope) {}
func (*neverHalt) Halted() bool            { return false }

// sendLog is a fault that records every FilterSend call and, when keep
// is not negative, crashes node 0 in round 0 keeping the first keep
// envelopes.
type sendLog struct {
	keep  int
	calls [][2]int
}

func (l *sendLog) FilterSend(round int, from NodeID, out []Envelope) ([]Envelope, bool) {
	l.calls = append(l.calls, [2]int{round, from})
	if round == 0 && from == 0 && l.keep >= 0 {
		return out[:min(l.keep, len(out))], true
	}
	return out, false
}

// TestRunValidation pins the engine's rejection of an invalid outbox: the
// exact error, also when the invalid envelope lies past the keep prefix
// a crash would deliver, and no FilterSend call for that outbox.
func TestRunValidation(t *testing.T) {
	ok := Envelope{From: 0, To: 1, Payload: Bit(true)}
	cases := []struct {
		name string
		envs []Envelope
		keep int
		want string
	}{
		{"forged sender", []Envelope{{From: 5, To: 1, Payload: Bit(true)}}, -1, "sim: node 0 forged sender 5"},
		{"invalid target", []Envelope{{From: 0, To: 99, Payload: Bit(true)}}, -1, "sim: node 0 addressed invalid node 99"},
		{"negative target", []Envelope{ok, {From: 0, To: -1, Payload: Bit(true)}}, -1, "sim: node 0 addressed invalid node -1"},
		{"self send", []Envelope{{From: 0, To: 0, Payload: Bit(true)}}, -1, "sim: node 0 sent to itself"},
		{"nil payload", []Envelope{{From: 0, To: 1, Payload: nil}}, -1, "sim: node 0 sent nil payload"},
		{"past the keep prefix", []Envelope{ok, ok, {From: 0, To: 2, Payload: nil}}, 1, "sim: node 0 sent nil payload"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ps := []Protocol{&fixedSender{envs: c.envs}, &neverHalt{}, &neverHalt{}}
			log := &sendLog{keep: c.keep}
			_, err := Run(Config{Protocols: ps, Fault: log, MaxRounds: 3})
			if err == nil || err.Error() != c.want {
				t.Fatalf("error %v, want %q", err, c.want)
			}
			if len(log.calls) > 0 {
				t.Fatalf("FilterSend saw the invalid outbox: calls %v", log.calls)
			}
		})
	}
}

type fixedSender struct{ envs []Envelope }

func (f *fixedSender) Send(round int) []Envelope {
	if round == 0 {
		return f.envs
	}
	return nil
}
func (f *fixedSender) Deliver(int, []Envelope) {}
func (f *fixedSender) Halted() bool            { return false }

// crashAt crashes one node at a given round keeping k messages.
type crashAt struct {
	node, round, keep int
}

func (a crashAt) FilterSend(round int, from NodeID, out []Envelope) ([]Envelope, bool) {
	if round == a.round && from == a.node {
		if a.keep < 0 || a.keep > len(out) {
			return out, true
		}
		return out[:a.keep], true
	}
	return out, false
}

func TestCrashSuppressesTraffic(t *testing.T) {
	ps, gs := newGatherers(10)
	// Node 1 (bit=1) crashes at round 0 delivering nothing.
	res, err := Run(Config{Protocols: ps, Fault: crashAt{node: 1, round: 0, keep: 0}, MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if gs[0].ones != 4 {
		t.Fatalf("node 0 counted %d ones, want 4 (node 1 crashed)", gs[0].ones)
	}
	if !res.Crashed.Contains(1) {
		t.Fatal("crash not recorded")
	}
	if res.HaltedAt[1] != -1 {
		t.Fatalf("crashed node has HaltedAt = %d, want -1", res.HaltedAt[1])
	}
	if res.Metrics.Messages != 8 {
		t.Fatalf("messages = %d, want 8", res.Metrics.Messages)
	}
}

func TestPartialCrashDelivery(t *testing.T) {
	// A node multicasting to three targets crashes keeping 1 message.
	multi := &multicaster{n: 4}
	ps := []Protocol{multi, &sink{}, &sink{}, &sink{}}
	res, err := Run(Config{Protocols: ps, Fault: crashAt{node: 0, round: 0, keep: 1}, MaxRounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Messages != 1 {
		t.Fatalf("messages = %d, want 1 (partial delivery)", res.Metrics.Messages)
	}
	got := 0
	for _, p := range ps[1:] {
		got += p.(*sink).received
	}
	if got != 1 {
		t.Fatalf("delivered = %d, want 1", got)
	}
}

type multicaster struct {
	n      int
	halted bool
}

func (m *multicaster) Send(round int) []Envelope {
	if round > 0 {
		return nil
	}
	out := make([]Envelope, 0, m.n-1)
	for to := 1; to < m.n; to++ {
		out = append(out, Envelope{From: 0, To: to, Payload: Bit(true)})
	}
	return out
}
func (m *multicaster) Deliver(round int, _ []Envelope) { m.halted = true }
func (m *multicaster) Halted() bool                    { return m.halted }

type sink struct {
	received int
	rounds   int
}

func (s *sink) Send(int) []Envelope { return nil }
func (s *sink) Deliver(_ int, inbox []Envelope) {
	s.received += len(inbox)
	s.rounds++
}
func (s *sink) Halted() bool { return s.rounds >= 2 }

func TestByzantineCounting(t *testing.T) {
	ps, _ := newGatherers(6)
	byz := bitset.New(6)
	byz.Add(2)
	byz.Add(3)
	res, err := Run(Config{Protocols: ps, Byzantine: byz, MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Messages != 3 {
		t.Fatalf("non-faulty messages = %d, want 3", res.Metrics.Messages)
	}
	if res.Metrics.ByzMessages != 2 {
		t.Fatalf("byzantine messages = %d, want 2", res.Metrics.ByzMessages)
	}
}

func TestInboxSortedBySender(t *testing.T) {
	rec := &orderRecorder{}
	ps := []Protocol{rec}
	for i := 1; i < 6; i++ {
		ps = append(ps, &fixedHaltingSender{id: i})
	}
	if _, err := Run(Config{Protocols: ps, MaxRounds: 5}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rec.order); i++ {
		if rec.order[i] < rec.order[i-1] {
			t.Fatalf("inbox not sorted: %v", rec.order)
		}
	}
	if len(rec.order) != 5 {
		t.Fatalf("received %d messages, want 5", len(rec.order))
	}
}

type orderRecorder struct {
	order  []NodeID
	rounds int
}

func (o *orderRecorder) Send(int) []Envelope { return nil }
func (o *orderRecorder) Deliver(_ int, inbox []Envelope) {
	for _, env := range inbox {
		o.order = append(o.order, env.From)
	}
	o.rounds++
}
func (o *orderRecorder) Halted() bool { return o.rounds >= 1 }

type fixedHaltingSender struct {
	id     int
	halted bool
}

func (f *fixedHaltingSender) Send(round int) []Envelope {
	if round == 0 {
		return []Envelope{{From: f.id, To: 0, Payload: Bit(true)}}
	}
	return nil
}
func (f *fixedHaltingSender) Deliver(int, []Envelope) { f.halted = true }
func (f *fixedHaltingSender) Halted() bool            { return f.halted }

func TestConfigErrors(t *testing.T) {
	if _, err := Run(Config{MaxRounds: 1}); err == nil {
		t.Fatal("empty protocol list accepted")
	}
	ps, _ := newGatherers(2)
	if _, err := Run(Config{Protocols: ps}); err == nil {
		t.Fatal("zero MaxRounds accepted")
	}
	if _, err := Run(Config{Protocols: ps, MaxRounds: 5, SinglePort: true}); err == nil {
		t.Fatal("single-port without Poller accepted")
	}
}
