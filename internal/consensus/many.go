package consensus

import (
	"fmt"

	"lineartime/internal/expander"
	"lineartime/internal/probe"
	"lineartime/internal/sim"
)

// ManyTopology bundles the overlays of Many-Crashes-Consensus (§4.4),
// which works for any 0 < t < n: a flooding/probing overlay G on all n
// nodes whose degree grows with α = t/n (the paper's d(α) = (4/(1−α))^8,
// scaled here), and the inquiry family G_i of degrees d_i ∝ 2^i.
type ManyTopology struct {
	N, T    int
	Alpha   float64
	Overlay *expander.Overlay
	Inquiry *expander.InquiryFamily
	// Schedule is the round plan; Many-Crashes reads its Many* fields.
	Schedule Schedule
}

// NewManyTopology constructs the shared overlays for any 0 ≤ t < n.
func NewManyTopology(n, t int, opts TopologyOptions) (*ManyTopology, error) {
	if n < 2 {
		return nil, fmt.Errorf("consensus: need n ≥ 2, got %d", n)
	}
	if t < 0 || t >= n {
		return nil, fmt.Errorf("consensus: need 0 ≤ t < n, got t=%d n=%d", t, n)
	}
	alpha := float64(t) / float64(n)
	d := opts.Degree
	if d == 0 {
		// Scaled rendering of d(α) = (4/(1−α))^8: the degree must grow
		// as α → 1 so survival sets persist; we grow linearly in
		// 1/(1−α) instead of polynomially, capped at n−1.
		d = expander.DefaultDegree + int(16*alpha/(1-alpha+1e-9))
		if d > n-1 {
			d = n - 1
		}
	}
	overlay, err := expander.New(n, expander.Options{Degree: d, Seed: opts.Seed + 11})
	if err != nil {
		return nil, fmt.Errorf("many-crashes overlay: %w", err)
	}
	return &ManyTopology{
		N:        n,
		T:        t,
		Alpha:    alpha,
		Overlay:  overlay,
		Inquiry:  expander.NewInquiryFamily(n, 8, opts.Seed+13),
		Schedule: NewSchedule(n, t, opts.Degree),
	}, nil
}

// ManyCrashes is algorithm Many-Crashes-Consensus (Figure 4):
//
//	Part 1 (n−1 rounds): flood rumor 1 over G,
//	Part 2 (2+lg n rounds): local probing; survivors decide,
//	Part 3 (2·(1+⌈lg((1+3α)n/4)⌉) rounds): undecided nodes inquire over
//	  the growing graphs G_i and adopt responders' decisions.
//
// Theorem 8: consensus for any t < n in ≤ n + 3(1 + lg n) rounds with
// O(n·lg n / (1−α)^8) one-bit messages; Corollary 1 instantiates
// t = n − 1.
//
// DecideFallback (default on) adds the terminal rule "if still
// undecided when the schedule ends, decide the own candidate", which
// covers the extreme fault patterns (for example t = n−1 with every
// other node crashed at round 0) where the paper's galactic constants
// leave no survivor to answer inquiries; within any connected alive
// component candidates agree after Part 1, which is exactly the
// regime where those patterns arise.
type ManyCrashes struct {
	id  int
	top *ManyTopology

	candidate bool
	flooded   bool
	pending   bool
	probing   *probe.Probing

	decided  bool
	decision bool
	halted   bool

	inquirers []int

	fallback bool
}

// NewManyCrashes creates the machine for node id with the given input.
func NewManyCrashes(id int, top *ManyTopology, input bool) *ManyCrashes {
	m := &ManyCrashes{
		id:        id,
		top:       top,
		candidate: input,
		fallback:  true,
	}
	m.probing = probe.New(top.Overlay.Neighbors(id), top.Overlay.P.Gamma, top.Overlay.P.Delta)
	return m
}

// SetDecideFallback toggles the terminal own-candidate rule.
func (m *ManyCrashes) SetDecideFallback(on bool) { m.fallback = on }

// ScheduleLength returns the protocol's fixed round count.
func (m *ManyCrashes) ScheduleLength() int { return m.top.Schedule.Many }

// Decision returns the consensus decision, if reached.
func (m *ManyCrashes) Decision() (value, ok bool) { return m.decision, m.decided }

// Send implements sim.Protocol.
func (m *ManyCrashes) Send(round int) []sim.Envelope {
	s := &m.top.Schedule
	switch {
	case round < s.ManyFlood:
		first := round == 0
		if (first && m.candidate && !m.flooded) || m.pending {
			m.flooded = true
			m.pending = false
			nbrs := m.top.Overlay.Neighbors(m.id)
			out := make([]sim.Envelope, 0, len(nbrs))
			for _, to := range nbrs {
				out = append(out, sim.Envelope{From: m.id, To: to, Payload: sim.Bit(true)})
			}
			return out
		}
		return nil
	case round < s.ManyProbe:
		targets := m.probing.SendTargets()
		out := make([]sim.Envelope, 0, len(targets))
		for _, to := range targets {
			out = append(out, sim.Envelope{From: m.id, To: to, Payload: sim.Probe{Rumor: sim.Bit(m.candidate)}})
		}
		return out
	case round < s.Many:
		off := round - s.ManyProbe
		if off%2 == 0 { // inquiry round
			m.inquirers = m.inquirers[:0]
			if m.decided {
				return nil
			}
			overlay, err := m.top.Inquiry.Phase(off/2 + 1)
			if err != nil {
				panic("consensus: inquiry overlay unavailable: " + err.Error())
			}
			nbrs := overlay.Neighbors(m.id)
			out := make([]sim.Envelope, 0, len(nbrs))
			for _, to := range nbrs {
				out = append(out, sim.Envelope{From: m.id, To: to, Payload: sim.Inquiry{}})
			}
			return out
		}
		if !m.decided || len(m.inquirers) == 0 {
			return nil
		}
		out := make([]sim.Envelope, 0, len(m.inquirers))
		for _, to := range m.inquirers {
			out = append(out, sim.Envelope{From: m.id, To: to, Payload: sim.Bit(m.decision)})
		}
		return out
	default:
		return nil
	}
}

// Deliver implements sim.Protocol.
func (m *ManyCrashes) Deliver(round int, inbox []sim.Envelope) {
	s := &m.top.Schedule
	switch {
	case round < s.ManyFlood:
		if !m.candidate {
			for _, env := range inbox {
				if b, ok := env.Payload.(sim.Bit); ok && bool(b) {
					m.candidate = true
					if !m.flooded && round+1 < s.ManyFlood {
						m.pending = true
					}
					break
				}
			}
		}
	case round < s.ManyProbe:
		count := 0
		for _, env := range inbox {
			p, ok := env.Payload.(sim.Probe)
			if !ok {
				continue
			}
			count++
			if bool(p.Rumor) && !m.candidate {
				m.candidate = true
			}
		}
		m.probing.Observe(round-s.ManyFlood, count)
		if m.probing.Done() && m.probing.Survived() && !m.decided {
			m.decided = true
			m.decision = m.candidate
		}
	case round < s.Many:
		off := round - s.ManyProbe
		if off%2 == 0 {
			if m.decided {
				for _, env := range inbox {
					if _, ok := env.Payload.(sim.Inquiry); ok {
						m.inquirers = append(m.inquirers, env.From)
					}
				}
			}
		} else if !m.decided {
			for _, env := range inbox {
				if b, ok := env.Payload.(sim.Bit); ok {
					m.decided = true
					m.decision = bool(b)
					break
				}
			}
		}
	}
	if round == s.Many-1 {
		if !m.decided && m.fallback {
			m.decided = true
			m.decision = m.candidate
		}
		m.halted = true
	}
}

// Halted implements sim.Protocol.
func (m *ManyCrashes) Halted() bool { return m.halted }

// PartAt labels a round with its Many-Crashes-Consensus part.
func (m *ManyCrashes) PartAt(round int) string { return m.top.Schedule.ManyPart(round) }

var _ sim.Protocol = (*ManyCrashes)(nil)
