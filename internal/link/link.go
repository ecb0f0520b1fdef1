// Package link provides the link-level fault models that plug into the
// simulator's fault-injection layer (sim.LinkFilter): message omission
// with a per-link loss rate, network partitions over a round window,
// and adversarially delayed delivery bounded by a parameter d.
//
// Unlike the node-level crash strategies of internal/crash, these
// faults never kill a node — they act on individual envelopes in
// flight. Every verdict is a pure function of (seed, round, from, to),
// computed by a stateless hash, so a fault value is safe to share
// between runs and produces identical transcripts on the sequential
// and parallel engines regardless of evaluation order. Each model also
// declares that function in closed form (sim.KernelFilter), which lets
// the bit-sliced engine answer for 64 lanes of faults with one word
// kernel per family instead of one FilterLink call per lane.
package link

import (
	"math"

	"lineartime/internal/sim"
)

// mix hashes (seed, round, from, to) into a uniform uint64.
// Statelessness is the point: verdicts depend only on the link
// coordinates, never on how many envelopes were filtered before. The
// hash is sim's link hash — a seed-independent key and a per-seed
// finish — so these scalar verdicts and the sliced engine's lane
// kernels share one definition of it.
func mix(seed uint64, round int, from, to sim.NodeID) uint64 {
	return sim.LinkHashFinish(seed ^ sim.LinkHashKey(round, from, to))
}

// Omission drops each envelope independently with a fixed per-link
// probability — the classic omission-fault model: senders keep paying
// for their traffic, receivers see a lossy network.
type Omission struct {
	// NoFailures provides the no-op node level: omission never
	// crashes anyone.
	sim.NoFailures
	threshold uint64
	seed      uint64
}

// NewOmission builds an omission fault losing each message with the
// given probability (clamped to [0, 1]).
func NewOmission(rate float64, seed uint64) *Omission {
	switch {
	case rate <= 0:
		return &Omission{threshold: 0, seed: seed}
	case rate >= 1:
		return &Omission{threshold: math.MaxUint64, seed: seed}
	}
	return &Omission{threshold: uint64(rate * (1 << 63) * 2), seed: seed}
}

// FilterLink implements sim.LinkFilter.
func (o *Omission) FilterLink(round int, env sim.Envelope) sim.Verdict {
	if mix(o.seed, round, env.From, env.To) < o.threshold {
		return sim.Drop
	}
	return sim.Deliver
}

// MaxDelay implements sim.LinkFilter; omission never delays.
func (*Omission) MaxDelay() int { return 0 }

// LinkKernel implements sim.KernelFilter.
func (o *Omission) LinkKernel() sim.LinkKernel {
	return sim.LinkKernel{Kind: sim.KernelOmission, Seed: o.seed, Threshold: o.threshold}
}

var _ sim.KernelFilter = (*Omission)(nil)

// Partition splits the network into two sides for the round window
// [Start, End): nodes 0..Cut-1 on one side, the rest on the other.
// Messages crossing the cut during the window are lost; traffic within
// a side, and all traffic outside the window, flows normally — the
// network heals at round End.
type Partition struct {
	// NoFailures provides the no-op node level: a partition never
	// crashes anyone.
	sim.NoFailures
	start, end, cut int
}

// NewPartition builds a partition of the first cut node names away
// from the rest, lasting rounds [start, end).
func NewPartition(start, end, cut int) *Partition {
	return &Partition{start: start, end: end, cut: cut}
}

// FilterLink implements sim.LinkFilter.
func (p *Partition) FilterLink(round int, env sim.Envelope) sim.Verdict {
	if round >= p.start && round < p.end && (env.From < p.cut) != (env.To < p.cut) {
		return sim.Drop
	}
	return sim.Deliver
}

// MaxDelay implements sim.LinkFilter; a partition never delays.
func (*Partition) MaxDelay() int { return 0 }

// LinkKernel implements sim.KernelFilter.
func (p *Partition) LinkKernel() sim.LinkKernel {
	return sim.LinkKernel{Kind: sim.KernelPartition, Start: p.start, End: p.end, Cut: p.cut}
}

var _ sim.KernelFilter = (*Partition)(nil)

// Delay delivers each envelope a seeded pseudo-random number of rounds
// late, uniform on [0, d] per link and round — the adversarial
// scheduler of a d-bounded asynchronous network embedded in the
// synchronous engine.
type Delay struct {
	// NoFailures provides the no-op node level: delay never crashes
	// anyone.
	sim.NoFailures
	d    int
	seed uint64
}

// NewDelay builds a delay fault with bound d >= 0.
func NewDelay(d int, seed uint64) *Delay {
	if d < 0 {
		d = 0
	}
	return &Delay{d: d, seed: seed}
}

// FilterLink implements sim.LinkFilter.
func (d *Delay) FilterLink(round int, env sim.Envelope) sim.Verdict {
	if d.d == 0 {
		return sim.Deliver
	}
	return sim.DelayBy(int(mix(d.seed, round, env.From, env.To) % uint64(d.d+1)))
}

// MaxDelay implements sim.LinkFilter.
func (d *Delay) MaxDelay() int { return d.d }

// LinkKernel implements sim.KernelFilter.
func (d *Delay) LinkKernel() sim.LinkKernel {
	return sim.LinkKernel{Kind: sim.KernelDelay, Seed: d.seed, Delay: d.d}
}

var _ sim.KernelFilter = (*Delay)(nil)
