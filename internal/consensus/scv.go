package consensus

import (
	"lineartime/internal/sim"
)

// SCV is the per-node state machine of algorithm Spread-Common-Value
// (Figure 2). An instance starts with ≥ 3n/5 nodes holding a common
// value (here: a bit) and all others holding null; it ends with every
// non-faulty node decided on the common value (Theorem 6: O(log t)
// rounds, O(t log t) messages, t < n/5).
//
// Part 1 broadcasts the value over the expander H for
// 1 + ⌈log_{3/2}((2n/5)/max{t, n/t})⌉ rounds. Part 2 has the
// stragglers inquire: if t² ≤ n they ask every little node directly;
// otherwise they run ⌈lg(t+1)⌉ two-round phases over the growing
// graphs G_i, followed by the same little-node fallback, which makes
// termination-with-decision unconditional whenever any non-faulty
// little node holds the value (the paper's branch structure, unified).
type SCV struct {
	id  int
	top *Topology

	decided bool
	value   bool
	adopted bool // adopted in the previous Part 1 round → forward next Send

	inquirers  []int // inquiry senders of the current phase's first round
	out        sim.Outbox
	standalone bool
	halted     bool

	base int // SCV's first round
}

// NewSCV creates the SCV machine for node id starting at round base.
// hasValue/value carry the node's initialization (the paper's
// dedicated variable: common value or null).
func NewSCV(id int, top *Topology, hasValue, value bool, base int, standalone bool) *SCV {
	s := new(SCV)
	s.init(id, top, hasValue, value, base, standalone)
	return s
}

// init makes s, in place, the machine NewSCV creates.
func (s *SCV) init(id int, top *Topology, hasValue, value bool, base int, standalone bool) {
	*s = SCV{
		id:         id,
		top:        top,
		decided:    hasValue,
		value:      value,
		adopted:    hasValue, // initialized holders broadcast at round base
		standalone: standalone,
		base:       base,
	}
}

// End returns the first round after SCV's schedule.
func (s *SCV) End() int { return s.base + s.top.Schedule.SCV }

// Decided returns the adopted common value, if any.
func (s *SCV) Decided() (value, ok bool) { return s.value, s.decided }

// phaseAt maps a relative round r in Part 2 to (phase index
// 0..SCVPhases, first/second round).
func (s *SCV) phaseAt(r int) (phase int, first bool) {
	off := r - s.top.Schedule.SCVBroadcast
	return off / 2, off%2 == 0
}

// sendInquiries returns an undecided node's inquiries of the given
// phase: to its G_{phase+1} neighbors in the growing-graph phases, to
// every little node in the final fallback phase.
func (s *SCV) sendInquiries(phase int) []sim.Envelope {
	if phase >= s.top.Schedule.SCVPhases { // fallback
		s.out.Reset(s.top.L)
		for to := 0; to < s.top.L; to++ {
			if to != s.id {
				s.out.Add(s.id, to, sim.Inquiry{})
			}
		}
		return s.out
	}
	overlay, err := s.top.Inquiry.Phase(phase + 1)
	if err != nil {
		// Families are memoized and constructed from verified seeds;
		// failure here means the topology itself is unusable.
		panic("consensus: inquiry overlay unavailable: " + err.Error())
	}
	return s.out.FanOut(s.id, overlay.Neighbors(s.id), sim.Inquiry{})
}

// Send implements sim.Protocol.
func (s *SCV) Send(round int) []sim.Envelope {
	sc, r := &s.top.Schedule, round-s.base
	switch {
	case r < 0:
		return nil
	case r < sc.SCVBroadcast:
		if !s.adopted {
			return nil
		}
		s.adopted = false
		return s.out.FanOut(s.id, s.top.MustBroadcast().Neighbors(s.id), sim.Bit(s.value))
	case r < sc.SCV:
		phase, first := s.phaseAt(r)
		if first {
			s.inquirers = s.inquirers[:0]
			if s.decided {
				return nil
			}
			return s.sendInquiries(phase)
		}
		if !s.decided || len(s.inquirers) == 0 {
			return nil
		}
		return s.out.FanOut(s.id, s.inquirers, sim.Bit(s.value))
	default:
		return nil
	}
}

// Deliver implements sim.Protocol.
func (s *SCV) Deliver(round int, inbox []sim.Envelope) {
	sc, r := &s.top.Schedule, round-s.base
	switch {
	case r < 0:
		return
	case r < sc.SCVBroadcast:
		if !s.decided {
			for _, env := range inbox {
				if b, ok := env.Payload.(sim.Bit); ok {
					s.decided = true
					s.value = bool(b)
					if r+1 < sc.SCVBroadcast {
						s.adopted = true
					}
					break
				}
			}
		}
	case r < sc.SCV:
		_, first := s.phaseAt(r)
		if first {
			if s.decided {
				for _, env := range inbox {
					if _, ok := env.Payload.(sim.Inquiry); ok {
						s.inquirers = append(s.inquirers, env.From)
					}
				}
			}
		} else if !s.decided {
			for _, env := range inbox {
				if b, ok := env.Payload.(sim.Bit); ok {
					s.decided = true
					s.value = bool(b)
					break
				}
			}
		}
	}
	if s.standalone && r == sc.SCV-1 {
		s.halted = true
	}
}

// Halted implements sim.Protocol.
func (s *SCV) Halted() bool { return s.halted }

// QuietUntil implements sim.Sleeper. A node with a freshly adopted
// value is awake (it forwards at the next Send); an undecided node
// waits out Part 1 and then wakes for each phase's inquiry round; a
// decided node with no inquirers to answer sleeps to the end — stale
// inquirers keep it awake until the next phase's Send drops them.
func (s *SCV) QuietUntil(round int) int {
	end := s.End()
	if s.standalone {
		end-- // the last round's Deliver halts
	}
	round = max(round, s.base)
	switch r := round - s.base; {
	case round >= end || s.adopted || len(s.inquirers) > 0:
		return round
	case s.decided:
		return end
	case r < s.top.Schedule.SCVBroadcast:
		return s.base + s.top.Schedule.SCVBroadcast
	default:
		if _, first := s.phaseAt(r); first {
			return round
		}
		return min(round+1, end)
	}
}

// RepeatUntil implements sim.Sleeper: SCV promises no repeats; its
// rounds that carry traffic are few and all different.
func (s *SCV) RepeatUntil(round, _ int) int { return round }

// Ignores implements sim.Sleeper, from the branches Deliver takes: a
// decided node reads nothing in Part 1 and in the response round of a
// phase, an undecided one nothing in a phase's inquiry round, and no
// node reads anything outside SCV's rounds.
func (s *SCV) Ignores(round int) bool {
	sc, r := &s.top.Schedule, round-s.base
	switch {
	case r < 0 || r >= sc.SCV:
		return true
	case r < sc.SCVBroadcast:
		return s.decided
	}
	_, first := s.phaseAt(r)
	return first != s.decided
}

var _ sim.Sleeper = (*SCV)(nil)
