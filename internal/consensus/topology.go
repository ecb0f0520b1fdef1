// Package consensus implements the paper's crash-fault agreement
// algorithms: Almost-Everywhere-Agreement (§4.1), Spread-Common-Value
// (§4.2), Few-Crashes-Consensus (§4.3), Many-Crashes-Consensus (§4.4),
// plus the flooding baseline used for the §1 comparisons and a
// majority-vote extension (§9).
//
// All protocols are deterministic state machines for the sim engine.
// Nodes sharing a run must share a *Topology (or *ManyTopology), which
// fixes the overlay graphs; the paper's "graphs known to every node"
// assumption is realized by constructing them from (n, t, seed).
package consensus

import (
	"fmt"
	"sync"

	"lineartime/internal/expander"
)

// Topology bundles the overlays for the t < n/5 algorithm family.
type Topology struct {
	// N is the number of nodes, T the crash bound.
	N, T int
	// L is the number of little nodes (LittleCount).
	L int
	// Schedule is the round plan of every algorithm on this topology.
	Schedule Schedule
	// Little is the overlay G on the little nodes (vertices are node
	// names 0..L-1), standing in for the G(5t, 5^8) Ramanujan graph.
	Little *expander.Overlay
	// Inquiry is the graph family G_i on all nodes (Lemma 5).
	Inquiry *expander.InquiryFamily
	// broadcast builds H on its first call and returns that result after.
	broadcast func() (*expander.Overlay, error)
}

// TopologyOptions tunes topology construction.
type TopologyOptions struct {
	// Seed derives every overlay deterministically. Two topologies
	// with equal (N, T, Seed, Degree) are identical.
	Seed uint64
	// Degree overrides the little-overlay degree (0 = default).
	Degree int
}

// NewTopology constructs the shared overlays for n nodes and crash
// bound t with t < n/5 (the assumption of §4.1–§4.3, §5–§6).
func NewTopology(n, t int, opts TopologyOptions) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("consensus: need n ≥ 2, got %d", n)
	}
	if t < 0 || 5*t > n {
		return nil, fmt.Errorf("consensus: need 5t ≤ n (5t=%d, n=%d)", 5*t, n)
	}
	l := LittleCount(n, t)
	little, err := expander.New(l, expander.Options{Degree: opts.Degree, Seed: opts.Seed + 1})
	if err != nil {
		return nil, fmt.Errorf("little overlay: %w", err)
	}
	return &Topology{
		N:        n,
		T:        t,
		L:        l,
		Schedule: NewSchedule(n, t, opts.Degree),
		Little:   little,
		Inquiry:  expander.NewInquiryFamily(n, 8, opts.Seed+3),
		broadcast: sync.OnceValues(func() (*expander.Overlay, error) {
			return newBroadcastGraph(n, opts.Seed+2)
		}),
	}, nil
}

// newBroadcastGraph constructs H; tests stand in one that cannot.
var newBroadcastGraph = expander.NewBroadcastGraph

// Broadcast returns the graph H of degree ≥ 64 on all nodes (§4.2), built
// by the first call — gossip never makes one — and safe from many nodes at
// once. Whoever assembles a system that will consult H calls it first, so
// that a failed build is that caller's error, not a machine's panic.
func (tp *Topology) Broadcast() (*expander.Overlay, error) { return tp.broadcast() }

// MustBroadcast is Broadcast for the machines, which return no errors.
func (tp *Topology) MustBroadcast() *expander.Overlay {
	h, err := tp.broadcast()
	if err != nil {
		panic("consensus: broadcast graph H unavailable: " + err.Error())
	}
	return h
}

// IsLittle reports whether node id is a little node.
func (tp *Topology) IsLittle(id int) bool { return id < tp.L }

// RelatedOf returns the non-little nodes related to little node i:
// all j ≥ L with j ≡ i (mod L). (§4.1 Part 3.)
func (tp *Topology) RelatedOf(i int) []int {
	var out []int
	for j := tp.L + i; j < tp.N; j += tp.L {
		out = append(out, j)
	}
	return out
}

// LittleOf returns the little node related to a non-little node j.
func (tp *Topology) LittleOf(j int) int { return j % tp.L }
