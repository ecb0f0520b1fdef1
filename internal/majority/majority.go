// Package majority implements the majority-consensus extension
// suggested in the paper's discussion (§9: "problems like gossip,
// counting, and majority consensus"). Nodes hold binary votes; every
// non-faulty node must decide the same verdict, which reflects the
// true majority among the votes that were actually collected.
//
// Construction: gossip the votes (§5), then agree on *which* votes
// count with two parallel banks of vector consensus (§6 machinery) —
// one bank for "ballot present", one for "ballot is a yes" — packed
// into a single 2n-instance vector so messages stay combined. The
// verdict is yes iff the agreed yes-set is larger than half the agreed
// ballot set. Because the sets are agreed exactly, so is the verdict.
package majority

import (
	"lineartime/internal/bitset"
	"lineartime/internal/consensus"
	"lineartime/internal/gossip"
	"lineartime/internal/sim"
)

// Verdict is the outcome of a majority vote.
type Verdict int

// Verdict values.
const (
	// No means yes-votes ≤ half of the counted ballots.
	No Verdict = iota + 1
	// Yes means yes-votes > half of the counted ballots.
	Yes
)

// Vote is the per-node state machine. Schedule: Gossip followed by a
// 2n-instance vector Few-Crashes-Consensus; O(t + log n log t) rounds
// and O(n + t log n log t) messages, like checkpointing (Theorem 10).
type Vote struct {
	id  int
	top *consensus.Topology

	gossip *gossip.Gossip
	vector *consensus.VectorFewCrashes
	halted bool
}

// New creates the voting machine for node id with the given vote.
// Votes are gossiped as rumors: 1 for yes, 0 for no.
func New(id int, top *consensus.Topology, yes bool) *Vote {
	rumor := gossip.Rumor(0)
	if yes {
		rumor = 1
	}
	return &Vote{id: id, top: top, gossip: gossip.New(id, top, rumor)}
}

// Verdict returns the decided verdict with the agreed tallies.
func (v *Vote) Verdict() (verdict Verdict, yesVotes, ballots int, ok bool) {
	if v.vector == nil {
		return 0, 0, 0, false
	}
	set, ok := v.vector.Decision()
	if !ok {
		return 0, 0, 0, false
	}
	n := v.top.N
	for i := 0; i < n; i++ {
		if set.Contains(i) {
			ballots++
			if set.Contains(n + i) {
				yesVotes++
			}
		}
	}
	verdict = No
	if 2*yesVotes > ballots {
		verdict = Yes
	}
	return verdict, yesVotes, ballots, true
}

// handoff packs the gossiped ballots into the doubled vector: bit i =
// ballot of node i collected, bit n+i = that ballot is a yes.
func (v *Vote) handoff() {
	if v.vector != nil {
		return
	}
	n := v.top.N
	initial := bitset.New(2 * n)
	e := v.gossip.Extant()
	for i := 0; i < n; i++ {
		if e.Present(i) {
			initial.Add(i)
			if e.Rumor(i) == 1 {
				initial.Add(n + i)
			}
		}
	}
	v.vector = consensus.NewVectorFewCrashes(v.id, v.top, initial)
}

// Send implements sim.Protocol.
func (v *Vote) Send(round int) []sim.Envelope {
	s := &v.top.Schedule
	if round < s.Gossip {
		return v.gossip.Send(round)
	}
	v.handoff()
	return v.vector.Send(round - s.Gossip)
}

// Deliver implements sim.Protocol.
func (v *Vote) Deliver(round int, inbox []sim.Envelope) {
	s := &v.top.Schedule
	if round < s.Gossip {
		v.gossip.Deliver(round, inbox)
		return
	}
	v.handoff()
	v.vector.Deliver(round-s.Gossip, inbox)
	if round == s.Checkpoint-1 {
		v.halted = true
	}
}

// Halted implements sim.Protocol.
func (v *Vote) Halted() bool { return v.halted }

var _ sim.Protocol = (*Vote)(nil)
