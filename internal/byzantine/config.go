// Package byzantine implements the authenticated-Byzantine-fault
// algorithms of §7: the Dolev–Strong broadcast sub-routine
// (DS-algorithm, run in parallel by the little nodes) and algorithm
// AB-Consensus (Figure 7, Theorem 11: consensus for t < n/2 in O(t)
// rounds with O(t² + n) messages sent by non-faulty nodes), plus the
// all-nodes Dolev–Strong comparator and concrete Byzantine node
// behaviours (silent, equivocating, spamming).
package byzantine

import (
	"fmt"
	"slices"

	"lineartime/internal/auth"
	"lineartime/internal/consensus"
	"lineartime/internal/expander"
)

// Config is the shared, publicly-known configuration of one
// AB-Consensus system: identities, overlays and schedule.
type Config struct {
	N, T int
	// L is the number of little nodes (consensus.LittleCount).
	L int
	// Authority is the PKI simulation.
	Authority *auth.Authority
	// Broadcast is the expander H used by Part 3.
	Broadcast *expander.Overlay

	// Endorsements is the number of little-node signatures a common
	// set must carry to be "authenticated": L − t (the paper's 4t when
	// L = 5t), at least 1.
	Endorsements int

	plan
}

// plan is AB-Consensus's schedule: the round at which each part ends.
type plan struct {
	dsRounds   int // Part 1a: parallel Dolev–Strong, t+2 rounds
	endorseEnd int // Part 1b: one endorsement round
	relatedEnd int // Part 2: one related-notification round
	part3End   int // Part 3: slow propagation over H, as long as SCV's Part 1
	part4End   int // Part 4: inquiry + response
}

func planFor(n, t int) plan {
	p := plan{dsRounds: DolevStrongRounds(t)}
	p.endorseEnd = p.dsRounds + 1
	p.relatedEnd = p.endorseEnd + 1
	p.part3End = p.relatedEnd + consensus.SCVBroadcastRounds(n, t)
	p.part4End = p.part3End + 2
	return p
}

// Parts declares AB-Consensus's five parts for n nodes and t faults,
// without building anything (Theorem 11). In each Dolev–Strong round
// each of the L little nodes sends at most one batch to each other
// little node, L(L−1) messages, and it endorses once in the same way;
// each of the n − L non-little nodes hears from its one related little
// node; each node forwards the set over H at most once, n·∆; and in
// Part 4 each node without a set asks the L little nodes, which answer
// each other node at most once, 2nL.
func Parts(n, t int) consensus.Parts {
	p := planFor(n, t)
	nn, l := int64(n), int64(consensus.LittleCount(n, t))
	return consensus.Parts{
		{Name: "dolev-strong", End: p.dsRounds, Bound: l * (l - 1) * int64(p.dsRounds)},
		{Name: "endorse", End: p.endorseEnd, Bound: l * (l - 1)},
		{Name: "notify-related", End: p.relatedEnd, Bound: nn - l},
		{Name: "propagate", End: p.part3End, Bound: nn * int64(expander.BroadcastParams(n).Degree)},
		{Name: "inquire", End: p.part4End, Bound: 2 * nn * l},
	}
}

// NewConfig builds the system configuration for n nodes, at most t
// authenticated-Byzantine faults, t < n/2.
func NewConfig(n, t int, seed uint64) (*Config, error) {
	if n < 2 {
		return nil, fmt.Errorf("byzantine: need n ≥ 2, got %d", n)
	}
	if t < 0 || 2*t >= n {
		return nil, fmt.Errorf("byzantine: need t < n/2, got t=%d n=%d", t, n)
	}
	l := consensus.LittleCount(n, t)
	h, err := expander.NewBroadcastGraph(n, seed+21)
	if err != nil {
		return nil, err
	}
	return &Config{
		N:            n,
		T:            t,
		L:            l,
		Authority:    auth.NewAuthority(n, seed),
		Broadcast:    h,
		Endorsements: max(l-t, 1),
		plan:         planFor(n, t),
	}, nil
}

// ScheduleLength returns the fixed number of rounds of AB-Consensus.
func (c *Config) ScheduleLength() int { return c.part4End }

// IsLittle reports whether id is a little node.
func (c *Config) IsLittle(id int) bool { return id < c.L }

// littleChain reports whether chain holds valid signatures over msg by
// distinct little nodes, at least required of them if required ≥ 0.
func (c *Config) littleChain(msg []byte, chain []auth.Signature, required int) bool {
	return !slices.ContainsFunc(chain, func(sig auth.Signature) bool { return sig.Signer >= c.L }) &&
		c.Authority.VerifyChain(msg, chain, required)
}
