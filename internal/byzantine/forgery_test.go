package byzantine

import (
	"testing"

	"lineartime/internal/auth"
	"lineartime/internal/bitset"
	"lineartime/internal/sim"
)

// chainForger is a Byzantine little node that injects Dolev–Strong
// relays with structurally valid-looking but cryptographically bogus
// chains: fabricated MACs, chains missing the source signature, chains
// with non-little signers, and chains re-using its one legitimate
// signature for a different value. Honest nodes must drop all of it.
type chainForger struct {
	id     int
	cfg    *Config
	signer *auth.Signer
	halted bool
}

func (f *chainForger) Send(round int) []sim.Envelope {
	if round > 2 {
		return nil
	}
	c := f.cfg
	victim := (f.id + 1) % c.L // an honest source to impersonate

	// Forgery 1: claim victim broadcast 666 with a zero-MAC chain.
	forged1 := Relay{Source: victim, Value: 666,
		Chain: []auth.Signature{{Signer: victim}}}
	// Forgery 2: valid own signature but chain missing the source.
	msg2 := auth.ValueMessage(victim, 667)
	forged2 := Relay{Source: victim, Value: 667,
		Chain: []auth.Signature{f.signer.Sign(msg2)}}
	// Forgery 3: own signature presented under the victim's name.
	sig3 := f.signer.Sign(auth.ValueMessage(victim, 668))
	sig3.Signer = victim
	forged3 := Relay{Source: victim, Value: 668,
		Chain: []auth.Signature{sig3}}

	batch := RelayBatch{Items: []Relay{forged1, forged2, forged3}}
	var out []sim.Envelope
	for i := 0; i < c.L; i++ {
		if i != f.id {
			out = append(out, sim.Envelope{From: f.id, To: i, Payload: batch})
		}
	}
	return out
}

func (f *chainForger) Deliver(round int, _ []sim.Envelope) {
	if round >= f.cfg.ScheduleLength()-1 {
		f.halted = true
	}
}

func (f *chainForger) Halted() bool { return f.halted }

var _ sim.Protocol = (*chainForger)(nil)

func TestForgedChainsRejected(t *testing.T) {
	n, tt := 40, 4
	cfg, err := NewConfig(n, tt, 11)
	if err != nil {
		t.Fatal(err)
	}
	inputs := seqInputs(n)
	honest := make([]*ABConsensus, n)
	ps := make([]sim.Protocol, n)
	byz := bitset.New(n)
	forgerID := 5
	for i := 0; i < n; i++ {
		if i == forgerID {
			ps[i] = &chainForger{id: i, cfg: cfg, signer: cfg.Authority.Signer(i)}
			byz.Add(i)
			continue
		}
		honest[i] = NewABConsensus(i, cfg, cfg.Authority.Signer(i), inputs[i])
		ps[i] = honest[i]
	}
	if _, err := sim.Run(sim.Config{
		Protocols: ps,
		Byzantine: byz,
		MaxRounds: cfg.ScheduleLength() + 5,
	}); err != nil {
		t.Fatal(err)
	}

	victim := (forgerID + 1) % cfg.L
	for i, h := range honest {
		if h == nil {
			continue
		}
		v, ok := h.Decision()
		if !ok {
			t.Fatalf("honest node %d undecided", i)
		}
		if v >= 666 && v <= 668 {
			t.Fatalf("honest node %d decided forged value %d", i, v)
		}
		// The victim's instance must still carry its true value: the
		// forger's garbage may not poison the victim's slot.
		set, have := h.set, h.haveSet
		if !have {
			t.Fatalf("honest node %d has no common set", i)
		}
		if !set.Present[victim] || set.Values[victim] != inputs[victim] {
			t.Fatalf("honest node %d: victim slot corrupted (present=%v value=%d)",
				i, set.Present[victim], set.Values[victim])
		}
	}
}

// TestEquivocatedSourceExtractsNull pins the Dolev–Strong core
// guarantee directly: an equivocating source's slot is null at every
// honest little node, and identical everywhere.
func TestEquivocatedSourceExtractsNull(t *testing.T) {
	n, tt := 40, 4
	cfg, err := NewConfig(n, tt, 13)
	if err != nil {
		t.Fatal(err)
	}
	inputs := seqInputs(n)
	honest := make([]*ABConsensus, n)
	ps := make([]sim.Protocol, n)
	byz := bitset.New(n)
	const eq = 2
	for i := 0; i < n; i++ {
		if i == eq {
			ps[i] = NewEquivocator(i, cfg, cfg.Authority.Signer(i), 9001, 9002)
			byz.Add(i)
			continue
		}
		honest[i] = NewABConsensus(i, cfg, cfg.Authority.Signer(i), inputs[i])
		ps[i] = honest[i]
	}
	if _, err := sim.Run(sim.Config{
		Protocols: ps,
		Byzantine: byz,
		MaxRounds: cfg.ScheduleLength() + 5,
	}); err != nil {
		t.Fatal(err)
	}
	for i, h := range honest {
		if h == nil {
			continue
		}
		set, have := h.set, h.haveSet
		if !have {
			t.Fatalf("node %d has no set", i)
		}
		if set.Present[eq] {
			t.Fatalf("node %d extracted a value for the equivocating source", i)
		}
	}
}
