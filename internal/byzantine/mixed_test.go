package byzantine

import (
	"testing"

	"lineartime/internal/sim"
)

// TestABConsensusMixedStrategies runs all three Byzantine behaviours
// simultaneously — silent little nodes, equivocating sources, and a
// spammer — at the full budget t, the integration stress for §7.
func TestABConsensusMixedStrategies(t *testing.T) {
	n, tt := 60, 6
	inputs := seqInputs(n)
	corrupt := map[int]func(int, *Config) sim.Protocol{
		0: func(id int, cfg *Config) sim.Protocol { return NewSilent(cfg) },
		4: func(id int, cfg *Config) sim.Protocol { return NewSilent(cfg) },
		8: func(id int, cfg *Config) sim.Protocol {
			return NewEquivocator(id, cfg, cfg.Authority.Signer(id), 8000, 8001)
		},
		12: func(id int, cfg *Config) sim.Protocol {
			return NewEquivocator(id, cfg, cfg.Authority.Signer(id), 8100, 8101)
		},
		16: func(id int, cfg *Config) sim.Protocol {
			return NewSpammer(id, cfg, cfg.Authority.Signer(id))
		},
		20: func(id int, cfg *Config) sim.Protocol {
			return NewSpammer(id, cfg, cfg.Authority.Signer(id))
		},
	}
	honest, res, cfg := buildSystem(t, n, tt, inputs, corrupt)
	// Max honest little input: little nodes are 0..L-1, the corrupted
	// ids above are all little (L = 30); the max honest little id is
	// L-1 = 29 (not corrupted).
	allowed := map[uint64]bool{inputs[cfg.L-1]: true}
	checkAgreementValidity(t, "mixed", honest, allowed)
	if res.Metrics.ByzMessages == 0 {
		t.Fatal("no Byzantine traffic recorded")
	}

	// Every honest node's common set must null the equivocators and
	// the silent sources, and carry true values for honest sources.
	for i, h := range honest {
		if h == nil {
			continue
		}
		set, ok := h.set, h.haveSet
		if !ok {
			t.Fatalf("node %d without set", i)
		}
		for _, badSource := range []int{0, 4, 8, 12} {
			if set.Present[badSource] {
				t.Fatalf("node %d extracted a value for corrupted source %d", i, badSource)
			}
		}
		for s := 0; s < cfg.L; s++ {
			if _, bad := corrupt[s]; bad {
				continue
			}
			if !set.Present[s] || set.Values[s] != inputs[s] {
				t.Fatalf("node %d: honest source %d corrupted (present=%v val=%d)",
					i, s, set.Present[s], set.Values[s])
			}
		}
	}
}

// TestABConsensusHonestMinorityOfLittle pushes the corruption into the
// little nodes only, at the full budget: t of the 5t little nodes are
// Byzantine, the worst placement for the endorsement threshold L − t.
func TestABConsensusHonestMinorityOfLittle(t *testing.T) {
	n, tt := 50, 5
	inputs := seqInputs(n)
	corrupt := map[int]func(int, *Config) sim.Protocol{}
	for i := 0; i < tt; i++ {
		corrupt[i] = func(id int, cfg *Config) sim.Protocol {
			return NewEquivocator(id, cfg, cfg.Authority.Signer(id), 9000+uint64(id), 9900+uint64(id))
		}
	}
	honest, _, cfg := buildSystem(t, n, tt, inputs, corrupt)
	allowed := map[uint64]bool{inputs[cfg.L-1]: true}
	checkAgreementValidity(t, "little-minority", honest, allowed)
}

// TestSpammerCannotExhaustLittleNodes bounds the spam-response
// overhead: little nodes answer at most one inquiry per spammer per
// Part 4 round, so honest traffic stays near the fault-free level.
func TestSpammerCannotExhaustLittleNodes(t *testing.T) {
	n, tt := 60, 6
	inputs := seqInputs(n)
	clean, cleanRes, _ := buildSystem(t, n, tt, inputs, nil)
	_ = clean
	corrupt := map[int]func(int, *Config) sim.Protocol{}
	for i := 0; i < tt; i++ {
		corrupt[5*i] = func(id int, cfg *Config) sim.Protocol {
			return NewSpammer(id, cfg, cfg.Authority.Signer(id))
		}
	}
	_, spamRes, _ := buildSystem(t, n, tt, inputs, corrupt)
	// Honest message growth under spam is bounded: the extra replies
	// are ≤ t per little node (Theorem 11's accounting).
	limit := cleanRes.Metrics.Messages + int64(tt*5*tt*4)
	if spamRes.Metrics.Messages > limit {
		t.Fatalf("honest messages under spam = %d exceed bound %d (clean %d)",
			spamRes.Metrics.Messages, limit, cleanRes.Metrics.Messages)
	}
}
