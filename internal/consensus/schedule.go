package consensus

import (
	"math"
	"slices"
	"sort"

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
	// first graph G_1, and ManyOverlay those of Many-Crashes-Consensus's
	// overlay on all n nodes.
	Little, Broadcast, G1, ManyOverlay expander.Params

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
	s.ManyOverlay = expander.ParamsOf(n, expander.Options{Degree: manyDegree(n, t, degree)})
	s.ManyFlood = max(n-1, 1)
	s.ManyProbe = s.ManyFlood + s.ManyOverlay.Gamma
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

// Part is one span of an algorithm's round schedule, with the most
// messages its non-faulty nodes send in it. The paper proves its
// communication bounds part by part; Parts lists an algorithm's parts
// in round order, each span starting where the one before it ends.
type Part struct {
	// Name labels the span's traffic in the per-part message counts; an
	// unnamed span is counted in none.
	Name string
	// End is the first round after the span, counted from the
	// algorithm's first round.
	End int
	// Bound caps the messages sent in the span: the paper's lemma where
	// it gives one, otherwise senders × per-round out-degree × rounds,
	// read off the code.
	Bound int64
}

// Parts is an algorithm's schedule as consecutive parts. A name may own
// several spans (gossip's blocks recur every phase); its bound is then
// the sum of theirs.
type Parts []Part

// End returns the first round after the schedule.
func (ps Parts) End() int {
	if len(ps) == 0 {
		return 0
	}
	return ps[len(ps)-1].End
}

// Label returns the name of the part round r falls in, "" past the end.
func (ps Parts) Label(r int) string {
	if i := sort.Search(len(ps), func(i int) bool { return ps[i].End > r }); i < len(ps) {
		return ps[i].Name
	}
	return ""
}

// Bound returns the sum of the bounds of the spans named name: 0 for a
// name no span has.
func (ps Parts) Bound(name string) int64 {
	var b int64
	for _, p := range ps {
		if p.Name == name {
			b += p.Bound
		}
	}
	return b
}

// Then returns ps followed by next, which starts at ps's end, with
// prefix before each of next's names.
func (ps Parts) Then(prefix string, next Parts) Parts {
	out, base := slices.Clip(ps), ps.End()
	for _, p := range next {
		p.Name, p.End = prefix+p.Name, p.End+base
		out = append(out, p)
	}
	return out
}

// inquiryDegrees returns the summed degrees of the inquiry graphs
// G_1..G_phases on n nodes: what one node sends over one round of each.
func inquiryDegrees(n, phases int) int64 {
	family := expander.NewInquiryFamily(n, 8, 0)
	var sum int64
	for i := 1; i <= phases; i++ {
		sum += int64(family.PhaseParams(i).Degree)
	}
	return sum
}

// AEAParts declares AEA's parts (Theorem 5). Each little node floods
// its little neighbours at most once, L·d messages; probes at most its
// d neighbours in each of the γ probing rounds, L·d·γ; and each of the
// n − L non-little nodes hears from its one related little node (the
// proof charges Part 3 n).
func (s *Schedule) AEAParts() Parts {
	l, d := int64(s.Little.N), int64(s.Little.Degree)
	return Parts{
		{"aea/flood", s.AEAFlood, l * d},
		{"aea/probing", s.AEAProbe, l * d * int64(s.Little.Gamma)},
		{"aea/notify", s.AEA, int64(s.Broadcast.N) - l},
	}
}

// SCVParts declares SCV's parts (Theorem 6). Part 1: each node forwards
// the value over H at most once, n·∆ messages. Part 2: in each phase's
// first round every undecided node asks its G_i neighbours, or in the
// fallback phase the L little nodes, and each inquiry is answered at
// most once, so at most 2n·(d_1 + … + d_k + L).
func (s *Schedule) SCVParts() Parts {
	n := int64(s.Broadcast.N)
	asked := inquiryDegrees(s.Broadcast.N, s.SCVPhases) + int64(s.Little.N)
	return Parts{
		{"scv/broadcast", s.SCVBroadcast, n * int64(s.Broadcast.Degree)},
		{"scv/inquiry", s.SCV, 2 * n * asked},
	}
}

// FewParts declares Few-Crashes-Consensus's parts (Theorem 7): AEA's,
// then SCV's.
func (s *Schedule) FewParts() Parts { return s.AEAParts().Then("", s.SCVParts()) }

// VectorParts declares the vector bank's parts: Few-Crashes-Consensus's,
// except that a little node floods again whenever its vector grows, so
// Part 1 may cost L·d in every one of its rounds.
func (s *Schedule) VectorParts() Parts {
	ps := s.FewParts()
	ps[0].Bound *= int64(s.AEAFlood)
	return ps
}

// ManyParts declares Many-Crashes-Consensus's parts (Theorem 8) over its
// overlay of degree d on all n nodes: each node floods at most once,
// n·d messages; probes at most d neighbours per probing round, n·d·γ;
// and in Part 3 every inquiry over G_i is answered at most once,
// 2n·(d_1 + … + d_k).
func (s *Schedule) ManyParts() Parts {
	n, d := int64(s.ManyOverlay.N), int64(s.ManyOverlay.Degree)
	return Parts{
		{"flood", s.ManyFlood, n * d},
		{"probing", s.ManyProbe, n * d * int64(s.ManyOverlay.Gamma)},
		{"inquiry", s.Many, 2 * n * inquiryDegrees(s.ManyOverlay.N, (s.Many-s.ManyProbe)/2)},
	}
}

// GossipParts declares gossip's parts (Theorem 9), one span per block of
// each phase. A Part 1 phase's inquiry block costs at most 2L·d_i: each
// little node asks at most its G_i neighbours, and each inquiry is
// answered at most once. A Part 2 phase pushes at most L·d_i. Every
// probing block is γ rounds in which each little node probes at most
// its d little neighbours, L·d·γ (Part 2's block also holds the silent
// response slot).
func (s *Schedule) GossipParts() Parts {
	l, probing := int64(s.Little.N), int64(s.Little.N*s.Little.Degree*s.Little.Gamma)
	family := expander.NewInquiryFamily(s.Broadcast.N, 8, 0)
	var ps Parts
	for phase := range 2 * s.GossipPhases {
		start := phase * s.GossipPhaseLen
		asked := l * int64(family.PhaseParams(phase%s.GossipPhases+1).Degree)
		if phase < s.GossipPhases {
			ps = append(ps, Part{"p1/inquiry", start + 2, 2 * asked}, Part{"p1/probing", start + s.GossipPhaseLen, probing})
		} else {
			ps = append(ps, Part{"p2/push", start + 1, asked}, Part{"p2/probing", start + s.GossipPhaseLen, probing})
		}
	}
	return ps
}

// CheckpointParts declares checkpointing's parts (Theorem 10): gossip's,
// then the vector bank's.
func (s *Schedule) CheckpointParts() Parts {
	return Parts{}.Then("gossip/", s.GossipParts()).Then("consensus/", s.VectorParts())
}

// SPParts declares the parts of §8's Linear-Consensus (Theorem 12), which
// compiles AEA's flooding and probing and SCV's spreading slot by slot,
// so they cost what AEA's Parts 1–2 and SCV's Part 1 cost; each of the
// ring-pull sweep's sub-phases holds one inquiry and one response per
// node.
func (s *Schedule) SPParts() Parts {
	aea, scv := s.AEAParts(), s.SCVParts()
	return Parts{
		{"flood(2d)", s.SPFlood, aea[0].Bound},
		{"probing(2d)", s.SPProbe, aea[1].Bound},
		{"spread(2Δ)", s.SPSpread, scv[0].Bound},
		{"ring-pull", s.SP, 2 * int64(s.Broadcast.N) * int64((s.SP-s.SPSpread)/4)},
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
