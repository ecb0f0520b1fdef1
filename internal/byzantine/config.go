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

// Rounds returns the fixed round count of AB-Consensus for n nodes and
// t faults, without building anything.
func Rounds(n, t int) int { return planFor(n, t).part4End }

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

// RelatedOf returns the non-little nodes related to little node i
// (same remainder modulo L, §7 Part 2).
func (c *Config) RelatedOf(i int) []int {
	var out []int
	for j := c.L + i; j < c.N; j += c.L {
		out = append(out, j)
	}
	return out
}

// LittleOf returns the little node related to node j.
func (c *Config) LittleOf(j int) int { return j % c.L }
