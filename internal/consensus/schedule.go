package consensus

import (
	"math"

	"lineartime/internal/expander"
)

// Schedule is the round plan of the paper's algorithms on n nodes with
// crash bound t: every part boundary of Almost-Everywhere-Agreement,
// Spread-Common-Value, Few-Crashes-Consensus (which the §6 vector bank
// runs unchanged), Many-Crashes-Consensus, gossip, and §8's single-port
// compilation. It is a function of (n, t) and the resolved parameters of
// the overlays those algorithms run on, so computing it builds nothing,
// and it is the only place the boundaries are derived: every machine
// reads them here.
//
// Each boundary is the round at which a part ends, counted from the
// first round of the algorithm it belongs to.
type Schedule struct {
	// Little and Broadcast are the parameters of the little overlay G
	// and of the broadcast graph H, G1 those of the inquiry family's
	// first graph G_1.
	Little, Broadcast, G1 expander.Params

	// AEA (Figure 1, Theorem 5): Part 1 floods until AEAFlood, Part 2
	// probes until AEAProbe, Part 3 notifies related nodes until AEA.
	AEAFlood, AEAProbe, AEA int
	// SCV (Figure 2, Theorem 6): Part 1 broadcasts over H until
	// SCVBroadcast; Part 2 runs SCVPhases two-round inquiry phases over
	// the graphs G_i and then the little-node fallback phase, until SCV.
	SCVBroadcast, SCVPhases, SCV int
	// Few-Crashes-Consensus (Figure 3, Theorem 7) and the vector bank:
	// AEA, then SCV from round AEA, whose Part 1 ends at FewBroadcast.
	FewBroadcast, Few int
	// Many-Crashes-Consensus (Figure 4, Theorem 8): flooding until
	// ManyFlood, probing until ManyProbe, inquiry phases until Many.
	ManyFlood, ManyProbe, Many int
	// Gossip (Figure 5, Theorem 9): two parts of GossipPhases phases,
	// each an inquiry (Part 2: push) round, a response round and γ
	// probing rounds, until Gossip.
	GossipPhases, GossipPhaseLen, Gossip int
	// Checkpoint is gossip followed by the vector bank: checkpointing
	// (§6, Theorem 10) and majority voting (§9).
	Checkpoint int
	// §8 Linear-Consensus (Theorem 12), in single-port rounds: AEA's
	// Part 1 with 2d slots per round until SPFlood, probing likewise
	// until SPProbe, spreading over H with 2∆ slots per round until
	// SPSpread, and a ring-pull sweep of four-round sub-phases until SP.
	SPFlood, SPProbe, SPSpread, SP int
}

// LittleCount returns L, the number of little nodes among n with crash
// bound t: 5t, but at least 5 so that tiny instances keep a
// non-degenerate overlay, and at most n. AB-Consensus (§7) draws its
// committee the same way.
func LittleCount(n, t int) int { return min(max(5*t, 5), n) }

// SCVBroadcastRounds returns the length of Spread-Common-Value's Part 1,
// 1 + ⌈log_{3/2}((2n/5)/max{t, n/t})⌉ (§4.2, Figure 2), but never below
// ⌈lg n⌉: the paper's H has ∆ = 64, ours may have less on small n, and
// broadcasting must still cover it. AB-Consensus's Part 3 (§7)
// propagates over H for as long.
func SCVBroadcastRounds(n, t int) int {
	t = max(t, 1)
	denom := math.Max(float64(t), float64(n)/float64(t))
	k := math.Ceil(math.Log(2*float64(n)/5/denom) / math.Log(1.5))
	return max(1+int(k), expander.CeilLog2(n))
}

// NewSchedule computes the round plan for n nodes and crash bound t
// over a little overlay of the given degree (0 = default), the overlay
// NewTopology builds for the same arguments.
func NewSchedule(n, t, degree int) Schedule {
	s := Schedule{
		Little:    expander.ParamsOf(LittleCount(n, t), expander.Options{Degree: degree}),
		Broadcast: expander.BroadcastParams(n),
	}
	gamma := s.Little.Gamma // 2 + lg L
	// Part 1 floods for 5t−1 rounds, but scaled-degree overlays can have
	// a diameter above that on tiny instances, and the flood must cover
	// the little graph: never below γ, which bounds a verified
	// expander's diameter.
	flood := 5*t - 1
	s.AEAFlood = max(flood, 1, gamma)
	s.AEAProbe = s.AEAFlood + gamma
	s.AEA = s.AEAProbe + 1

	// Part 2 asks every little node directly when t² ≤ n (the paper's
	// direct branch, here the fallback phase alone); otherwise it first
	// runs ⌈lg(t+1)⌉ phases over the growing graphs.
	s.SCVBroadcast = SCVBroadcastRounds(n, t)
	if t*t > n {
		s.SCVPhases = expander.CeilLog2(t + 1)
	}
	s.SCV = s.SCVBroadcast + 2*(s.SCVPhases+1)
	s.FewBroadcast = s.AEA + s.SCVBroadcast
	s.Few = s.AEA + s.SCV

	// Many-Crashes floods for n−1 rounds and probes for γ = 2 + lg n;
	// its Part 3 runs 1 + ⌈lg((1+3α)n/4)⌉ phases, α = t/n, but at least
	// as many as it takes the inquiry degree to saturate at n−1, so the
	// last phases reach every potential responder.
	s.ManyFlood = max(n-1, 1)
	s.ManyProbe = s.ManyFlood + expander.ParamsOf(n, expander.Options{}).Gamma
	alpha := float64(t) / float64(n)
	m := max(int((1+3*alpha)*float64(n)/4), 1)
	inquiry := expander.NewInquiryFamily(n, 8, 0)
	s.G1 = inquiry.PhaseParams(1)
	phases := max(1+expander.CeilLog2(m), inquiry.MaxPhases())
	s.Many = s.ManyProbe + 2*phases

	s.GossipPhases = max(expander.CeilLog2(n), 1)
	s.GossipPhaseLen = 2 + gamma
	s.Gossip = 2 * s.GossipPhases * s.GossipPhaseLen
	s.Checkpoint = s.Gossip + s.Few

	// §8 compiles each multi-port round of a constant-degree overlay
	// into a send slot and a poll slot per neighbour. H spreads for
	// Θ(log n) multi-port rounds; the sweep's O(t) sub-phases stop at
	// n−1, where every ring predecessor has been asked.
	d, delta := s.Little.Degree, s.Broadcast.Degree
	spread := 2*expander.CeilLog2(n) + 4
	ring := 6*t + expander.CeilLog2(n) + 16
	s.SPFlood = s.AEAFlood * 2 * d
	s.SPProbe = s.SPFlood + gamma*2*d
	s.SPSpread = s.SPProbe + spread*2*delta
	s.SP = s.SPSpread + 4*min(ring, n-1)
	return s
}

// AEAPart labels round r of AEA with its part, "" outside AEA.
func (s *Schedule) AEAPart(r int) string {
	switch {
	case r < 0 || r >= s.AEA:
		return ""
	case r < s.AEAFlood:
		return "aea/flood"
	case r < s.AEAProbe:
		return "aea/probing"
	default:
		return "aea/notify"
	}
}

// SCVPart labels round r of SCV with its part, "" outside SCV.
func (s *Schedule) SCVPart(r int) string {
	switch {
	case r < 0 || r >= s.SCV:
		return ""
	case r < s.SCVBroadcast:
		return "scv/broadcast"
	default:
		return "scv/inquiry"
	}
}

// FewPart labels round r of Few-Crashes-Consensus, or of the vector
// bank, with its part.
func (s *Schedule) FewPart(r int) string {
	if r < s.AEA {
		return s.AEAPart(r)
	}
	return s.SCVPart(r - s.AEA)
}

// ManyPart labels round r of Many-Crashes-Consensus with its part.
func (s *Schedule) ManyPart(r int) string {
	switch {
	case r < s.ManyFlood:
		return "flood"
	case r < s.ManyProbe:
		return "probing"
	case r < s.Many:
		return "inquiry"
	default:
		return ""
	}
}

// GossipAt decomposes gossip round r into its part (1 or 2), phase and
// offset within the phase.
func (s *Schedule) GossipAt(r int) (part, phase, off int) {
	part = 1
	if half := s.Gossip / 2; r >= half {
		part, r = 2, r-half
	}
	return part, r / s.GossipPhaseLen, r % s.GossipPhaseLen
}

// GossipPart labels round r of gossip with its part and block.
func (s *Schedule) GossipPart(r int) string {
	if r >= s.Gossip {
		return ""
	}
	part, _, off := s.GossipAt(r)
	switch {
	case part == 1 && off <= 1:
		return "p1/inquiry"
	case part == 1:
		return "p1/probing"
	case off == 0:
		return "p2/push"
	default:
		return "p2/probing"
	}
}

// CheckpointPart labels round r of checkpointing with its stage and the
// stage's part.
func (s *Schedule) CheckpointPart(r int) string {
	if r < s.Gossip {
		return "gossip/" + s.GossipPart(r)
	}
	return "consensus/" + s.FewPart(r-s.Gossip)
}

// SPAt returns the §8 segment of single-port round r — 1 flooding,
// 2 probing, 3 spreading over H, 4 the ring-pull sweep, 5 past the end —
// and the offset within it.
func (s *Schedule) SPAt(r int) (seg, off int) {
	switch {
	case r < s.SPFlood:
		return 1, r
	case r < s.SPProbe:
		return 2, r - s.SPFlood
	case r < s.SPSpread:
		return 3, r - s.SPProbe
	case r < s.SP:
		return 4, r - s.SPSpread
	default:
		return 5, 0
	}
}

// SPPart labels single-port round r of Linear-Consensus with its
// compiled segment.
func (s *Schedule) SPPart(r int) string {
	switch seg, _ := s.SPAt(r); seg {
	case 1:
		return "flood(2d)"
	case 2:
		return "probing(2d)"
	case 3:
		return "spread(2Δ)"
	case 4:
		return "ring-pull"
	default:
		return ""
	}
}
