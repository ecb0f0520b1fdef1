package byzantine

import (
	"testing"

	"lineartime/internal/auth"
	"lineartime/internal/bitset"
	"lineartime/internal/sim"
)

// buildSystem wires n nodes with the given Byzantine behaviours (keyed
// by node id; honest everywhere else) and runs AB-Consensus.
func buildSystem(t *testing.T, n, tt int, inputs []uint64,
	corrupt map[int]func(id int, cfg *Config) sim.Protocol) ([]*ABConsensus, *sim.Result, *Config) {
	t.Helper()
	cfg, err := NewConfig(n, tt, 42)
	if err != nil {
		t.Fatal(err)
	}
	honest := make([]*ABConsensus, n)
	ps := make([]sim.Protocol, n)
	byz := bitset.New(n)
	for i := 0; i < n; i++ {
		if mk, ok := corrupt[i]; ok {
			ps[i] = mk(i, cfg)
			byz.Add(i)
			continue
		}
		honest[i] = NewABConsensus(i, cfg, cfg.Authority.Signer(i), inputs[i])
		ps[i] = honest[i]
	}
	res, err := sim.Run(sim.Config{
		Protocols: ps,
		Byzantine: byz,
		MaxRounds: cfg.ScheduleLength() + 5,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return honest, res, cfg
}

func seqInputs(n int) []uint64 {
	in := make([]uint64, n)
	for i := range in {
		in[i] = uint64(100 + i)
	}
	return in
}

// checkAgreementValidity asserts that every honest node decided, all
// decisions are equal, and the decision is some honest little node's
// input or a Byzantine little node's (signed) proposal — for the
// strategies used here, a value ≤ the max honest little input + the
// known Byzantine values.
func checkAgreementValidity(t *testing.T, label string, honest []*ABConsensus, allowed map[uint64]bool) {
	t.Helper()
	var agreed *uint64
	for i, h := range honest {
		if h == nil {
			continue
		}
		v, ok := h.Decision()
		if !ok {
			t.Fatalf("%s: honest node %d undecided", label, i)
		}
		if agreed == nil {
			agreed = &v
		} else if *agreed != v {
			t.Fatalf("%s: disagreement %d vs %d", label, *agreed, v)
		}
	}
	if agreed == nil {
		t.Fatalf("%s: no honest nodes", label)
	}
	if !allowed[*agreed] {
		t.Fatalf("%s: decision %d is not an allowed value", label, *agreed)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewConfig(1, 0, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := NewConfig(10, 5, 1); err == nil {
		t.Fatal("t = n/2 accepted")
	}
	cfg, err := NewConfig(40, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.L != 20 {
		t.Fatalf("L = %d, want 20", cfg.L)
	}
	if cfg.Endorsements != 16 { // L − t = 4t
		t.Fatalf("Endorsements = %d, want 16", cfg.Endorsements)
	}
}

func TestABConsensusNoFaults(t *testing.T) {
	n, tt := 40, 4
	inputs := seqInputs(n)
	honest, res, cfg := buildSystem(t, n, tt, inputs, nil)
	// The decision is the max little input (only little values enter
	// the common set).
	allowed := map[uint64]bool{inputs[cfg.L-1]: true}
	checkAgreementValidity(t, "no-faults", honest, allowed)
	if res.Metrics.Rounds != cfg.ScheduleLength() {
		t.Fatalf("rounds = %d, want %d", res.Metrics.Rounds, cfg.ScheduleLength())
	}
}

func TestABConsensusSilentByzantine(t *testing.T) {
	n, tt := 40, 4
	inputs := seqInputs(n)
	corrupt := map[int]func(int, *Config) sim.Protocol{}
	for i := 0; i < tt; i++ { // silence t little nodes
		corrupt[i*3] = func(id int, cfg *Config) sim.Protocol { return NewSilent(cfg) }
	}
	honest, _, cfg := buildSystem(t, n, tt, inputs, corrupt)
	// Max honest little input decides (silent sources extract to null).
	allowed := map[uint64]bool{inputs[cfg.L-1]: true}
	checkAgreementValidity(t, "silent", honest, allowed)
}

func TestABConsensusEquivocators(t *testing.T) {
	n, tt := 40, 4
	inputs := seqInputs(n)
	corrupt := map[int]func(int, *Config) sim.Protocol{}
	for i := 0; i < tt; i++ {
		corrupt[i] = func(id int, cfg *Config) sim.Protocol {
			// Equivocated values exceed every honest input: if either
			// leaked into the decision, the test would fail.
			return NewEquivocator(id, cfg, cfg.Authority.Signer(id), 9000+uint64(id), 9500+uint64(id))
		}
	}
	honest, _, cfg := buildSystem(t, n, tt, inputs, corrupt)
	allowed := map[uint64]bool{inputs[cfg.L-1]: true}
	checkAgreementValidity(t, "equivocators", honest, allowed)
}

func TestABConsensusSpammers(t *testing.T) {
	n, tt := 40, 4
	inputs := seqInputs(n)
	corrupt := map[int]func(int, *Config) sim.Protocol{}
	for i := 0; i < tt; i++ {
		corrupt[2+i*5] = func(id int, cfg *Config) sim.Protocol {
			return NewSpammer(id, cfg, cfg.Authority.Signer(id))
		}
	}
	honest, res, cfg := buildSystem(t, n, tt, inputs, corrupt)
	// The spammers' fabricated max-value sets must all be dropped; the
	// honest decision is the max honest little input.
	allowed := map[uint64]bool{inputs[cfg.L-1]: true}
	checkAgreementValidity(t, "spammers", honest, allowed)
	if res.Metrics.ByzMessages == 0 {
		t.Fatal("spammers sent nothing; the stress test is vacuous")
	}
}

func TestABConsensusMessageShape(t *testing.T) {
	// Theorem 11: O(t² + n) messages from non-faulty nodes. The DS
	// part among 5t little nodes dominates with O(t²) per round over
	// t+2 rounds in the worst case; with honest sources each node
	// relays each source's single value once, so the observed count
	// stays near C·(t² + n).
	n, tt := 200, 7 // t ≈ √n·/2
	inputs := seqInputs(n)
	_, res, _ := buildSystem(t, n, tt, inputs, nil)
	limit := int64(40 * (tt*tt*10 + n))
	if res.Metrics.Messages > limit {
		t.Fatalf("messages = %d exceed O(t²+n) shape bound %d", res.Metrics.Messages, limit)
	}
}

func TestABConsensusTNearHalf(t *testing.T) {
	// t close to n/2: every node is little (5t > n).
	n, tt := 20, 9
	inputs := seqInputs(n)
	corrupt := map[int]func(int, *Config) sim.Protocol{}
	for i := 0; i < tt; i++ {
		corrupt[2*i] = func(id int, cfg *Config) sim.Protocol { return NewSilent(cfg) }
	}
	honest, _, cfg := buildSystem(t, n, tt, inputs, corrupt)
	if cfg.L != n {
		t.Fatalf("L = %d, want n", cfg.L)
	}
	// Max honest input: node 19 (odd) is honest.
	allowed := map[uint64]bool{inputs[n-1]: true}
	checkAgreementValidity(t, "t≈n/2", honest, allowed)
}

// runDSAll runs the all-nodes Dolev–Strong comparator, with the nodes
// in corrupt played by the given Byzantine machines.
func runDSAll(t *testing.T, cfg *Config, inputs []uint64, corrupt map[int]sim.Protocol) ([]*DSAll, *sim.Result) {
	t.Helper()
	ps := make([]sim.Protocol, cfg.N)
	ms := make([]*DSAll, cfg.N)
	byz := bitset.New(cfg.N)
	for i := range ps {
		if p, ok := corrupt[i]; ok {
			ps[i] = p
			byz.Add(i)
			continue
		}
		ms[i] = NewDSAll(i, cfg, cfg.Authority.Signer(i), inputs[i])
		ps[i] = ms[i]
	}
	res, err := sim.Run(sim.Config{Protocols: ps, Byzantine: byz, MaxRounds: cfg.T + 5})
	if err != nil {
		t.Fatal(err)
	}
	return ms, res
}

// checkDSAllDecided asserts every honest node decided want.
func checkDSAllDecided(t *testing.T, ms []*DSAll, want uint64) {
	t.Helper()
	for i, m := range ms {
		if m == nil {
			continue
		}
		if v, ok := m.Decision(); !ok || v != want {
			t.Fatalf("node %d decided (%d,%v), want (%d,true)", i, v, ok, want)
		}
	}
}

func TestDSAllBaseline(t *testing.T) {
	n, tt := 20, 4
	cfg, err := NewConfig(n, tt, 7)
	if err != nil {
		t.Fatal(err)
	}
	inputs := seqInputs(n)
	corrupt := make(map[int]sim.Protocol, tt)
	for i := 0; i < tt; i++ {
		corrupt[i] = NewSilent(cfg)
	}
	ms, res := runDSAll(t, cfg, inputs, corrupt)
	// Agreement on the maximum honest input: the silent nodes' slots
	// stay null.
	checkDSAllDecided(t, ms, inputs[n-1])
	// Baseline message profile: Θ(n²) in round 0 alone.
	if res.Metrics.Messages < int64((n-tt)*(n-1)) {
		t.Fatalf("baseline messages = %d, below n² profile", res.Metrics.Messages)
	}
}

// dsForger is a Byzantine DSAll participant that sends batch(to) to
// every other node in round fire and nothing otherwise.
type dsForger struct {
	id, n, fire int
	batch       func(to int) RelayBatch
}

func (f *dsForger) Send(round int) []sim.Envelope {
	if round != f.fire {
		return nil
	}
	var out []sim.Envelope
	for to := 0; to < f.n; to++ {
		if to != f.id {
			out = append(out, sim.Envelope{From: f.id, To: to, Payload: f.batch(to)})
		}
	}
	return out
}

func (f *dsForger) Deliver(int, []sim.Envelope) {}
func (f *dsForger) Halted() bool                { return false }

// TestDSAllEquivocatingSource: a Byzantine source signs two values and
// splits its round-0 audience. The relay rounds surface both values at
// every honest node, so the source's slot is null everywhere and the
// honest nodes agree on the maximum honest input, although both forged
// values exceed it.
func TestDSAllEquivocatingSource(t *testing.T) {
	n, tt, src := 20, 4, 3
	cfg, err := NewConfig(n, tt, 7)
	if err != nil {
		t.Fatal(err)
	}
	signer := cfg.Authority.Signer(src)
	equivocator := &dsForger{id: src, n: n, fire: 0, batch: func(to int) RelayBatch {
		v := uint64(1000 + 1000*(to%2))
		return RelayBatch{Items: []Relay{{Source: src, Value: v,
			Chain: []auth.Signature{signer.Sign(auth.ValueMessage(src, v))}}}}
	}}
	inputs := seqInputs(n)
	ms, _ := runDSAll(t, cfg, inputs, map[int]sim.Protocol{src: equivocator})
	checkDSAllDecided(t, ms, inputs[n-1])
	for i, m := range ms {
		if m != nil && len(m.accepted[src]) != 2 {
			t.Fatalf("node %d accepted %v from the equivocating source, want both values", i, m.accepted[src])
		}
	}
}

// TestDSAllRejectsLateShortChain: a Byzantine source and two colluders
// sign a value among themselves and reveal the 3-signature chain only
// in the last round, which demands t+2 signatures. Every honest node
// rejects it and the source's slot stays null. The same chain revealed
// in round 2, where 3 signatures suffice, is accepted everywhere.
func TestDSAllRejectsLateShortChain(t *testing.T) {
	n, tt := 16, 3
	cfg, err := NewConfig(n, tt, 1)
	if err != nil {
		t.Fatal(err)
	}
	const src, forged = 3, 4242
	msg := auth.ValueMessage(src, forged)
	var chain []auth.Signature
	for _, c := range []int{src, 5, 6} {
		chain = append(chain, cfg.Authority.Signer(c).Sign(msg))
	}
	reveal := func(round int) map[int]sim.Protocol {
		return map[int]sim.Protocol{
			src: NewSilent(cfg),
			6:   NewSilent(cfg),
			5: &dsForger{id: 5, n: n, fire: round, batch: func(int) RelayBatch {
				return RelayBatch{Items: []Relay{{Source: src, Value: forged, Chain: chain}}}
			}},
		}
	}
	inputs := seqInputs(n)
	ms, _ := runDSAll(t, cfg, inputs, reveal(DolevStrongRounds(tt)-1))
	checkDSAllDecided(t, ms, inputs[n-1])
	for i, m := range ms {
		if m != nil && len(m.accepted[src]) != 0 {
			t.Fatalf("node %d accepted the late short chain: %v", i, m.accepted[src])
		}
	}
	ms, _ = runDSAll(t, cfg, inputs, reveal(2))
	checkDSAllDecided(t, ms, forged)
}

func TestValidCommonSetRejectsForgeries(t *testing.T) {
	cfg, err := NewConfig(30, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]uint64, cfg.L)
	present := make([]bool, cfg.L)
	for i := range values {
		values[i] = uint64(i)
		present[i] = true
	}
	msg := auth.SetMessage(values, present)
	good := CommonSet{Values: values, Present: present}
	for i := 0; i < cfg.Endorsements; i++ {
		good.Endorsements = append(good.Endorsements, cfg.Authority.Signer(i).Sign(msg))
	}
	if !cfg.validCommonSet(good) {
		t.Fatal("valid set rejected")
	}

	short := good.Clone()
	short.Endorsements = short.Endorsements[:cfg.Endorsements-1]
	if cfg.validCommonSet(short) {
		t.Fatal("under-endorsed set accepted")
	}

	tampered := good.Clone()
	tampered.Values[0] = 999
	if cfg.validCommonSet(tampered) {
		t.Fatal("tampered set accepted")
	}

	nonLittle := good.Clone()
	nonLittle.Endorsements[0] = cfg.Authority.Signer(cfg.L).Sign(msg)
	if cfg.validCommonSet(nonLittle) {
		t.Fatal("non-little endorsement accepted")
	}

	dup := good.Clone()
	dup.Endorsements[1] = dup.Endorsements[0]
	if cfg.validCommonSet(dup) {
		t.Fatal("duplicate endorsers accepted")
	}
}
