package expander

import (
	"fmt"
	"sync"
)

// BroadcastDegree is the degree of the broadcast graph H used by
// Spread-Common-Value Part 1 and AB-Consensus Part 3. The paper
// requires ∆ ≥ 64 so that h(H) ≥ ∆/3; we keep 64 but cap it at n−1.
const BroadcastDegree = 64

// NewBroadcastGraph builds the overlay H on n vertices (§4.2): a
// verified expander of degree min(BroadcastDegree, n−1).
func NewBroadcastGraph(n int, seed uint64) (*Overlay, error) {
	o, err := New(n, Options{Degree: BroadcastParams(n).Degree, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("broadcast graph H: %w", err)
	}
	return o, nil
}

// BroadcastParams returns the Params of the graph H that
// NewBroadcastGraph(n, ·) builds, without building it.
func BroadcastParams(n int) Params {
	return ParamsOf(n, Options{Degree: min(BroadcastDegree, n-1)})
}

// InquiryFamily is the family of graphs G_1, G_2, ... with degrees
// growing geometrically (Lemma 5; Part 3 of Many-Crashes-Consensus;
// Part 2 of Spread-Common-Value; the per-phase graphs of Gossip).
// Phase i uses a graph of degree ≈ base·2^i, capped at the complete
// graph. Construction is lazy and memoized; all graphs are verified
// expanders built from the same base seed, so every node of a
// simulated system deterministically agrees on the family.
type InquiryFamily struct {
	n    int
	base int
	cap  int
	seed uint64

	mu     sync.Mutex
	graphs []*Overlay // index 0 = phase 1
}

// NewInquiryFamily creates the family for n vertices. base is the
// degree multiplier (paper: constants like 10 or 64/(3(1−α)(1+3α));
// we default to 8 when base <= 0).
func NewInquiryFamily(n, base int, seed uint64) *InquiryFamily {
	if base <= 0 {
		base = 8
	}
	return &InquiryFamily{n: n, base: base, cap: n - 1, seed: seed}
}

// NewCappedInquiryFamily creates a family whose degrees saturate at
// `cap` instead of n−1. The single-port compilation uses this: §8
// observes that inquiring O(t) links per node suffices, so the
// schedule need not reserve port slots beyond a Θ(t) degree.
func NewCappedInquiryFamily(n, base, cap int, seed uint64) *InquiryFamily {
	if base <= 0 {
		base = 8
	}
	if cap > n-1 || cap <= 0 {
		cap = n - 1
	}
	if cap < base {
		cap = base
	}
	return &InquiryFamily{n: n, base: base, cap: cap, seed: seed}
}

// N returns the vertex count of the family's graphs.
func (f *InquiryFamily) N() int { return f.n }

// MaxPhases returns the number of phases after which the graph degree
// saturates at the cap; inquiring beyond that cannot help.
func (f *InquiryFamily) MaxPhases() int {
	p := 1
	for d := f.base * 2; d < f.cap; d *= 2 {
		p++
	}
	return p
}

// PhaseDegree returns the degree of the phase-i overlay without
// constructing it: base·2^{i−1} saturating at the cap.
func (f *InquiryFamily) PhaseDegree(i int) int {
	d := f.base
	for k := 1; k < i; k++ {
		d *= 2
		if d >= f.cap {
			return f.cap
		}
	}
	if d > f.cap {
		d = f.cap
	}
	return d
}

// PhaseParams returns the Params of the phase-i overlay without
// constructing it.
func (f *InquiryFamily) PhaseParams(i int) Params {
	return ParamsOf(f.n, Options{Degree: f.PhaseDegree(i)})
}

// Phase returns the overlay for phase i (1-based). Degrees grow as
// base·2^{i−1}, saturating at the cap (n−1 by default). Safe for
// concurrent use.
func (f *InquiryFamily) Phase(i int) (*Overlay, error) {
	if i < 1 {
		return nil, fmt.Errorf("expander: inquiry phase must be ≥ 1, got %d", i)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.graphs) < i {
		idx := len(f.graphs) + 1
		o, err := New(f.n, Options{Degree: f.PhaseDegree(idx), Seed: f.seed + uint64(idx)*0x1000193})
		if err != nil {
			return nil, fmt.Errorf("inquiry graph G_%d: %w", idx, err)
		}
		f.graphs = append(f.graphs, o)
	}
	return f.graphs[i-1], nil
}
