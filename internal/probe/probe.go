// Package probe implements local probing, the fault-detection
// broadcast primitive of the paper (§2, Proposition 1, originally from
// Chlebus–Kowalski–Strojnowski PODC'09).
//
// An instance runs for exactly γ rounds on an overlay graph. While
// active, a node sends a message to every overlay neighbor each round.
// If a node receives fewer than δ messages in a round it "pauses
// prematurely": it stops sending for the remaining rounds. A node that
// never pauses "survives". Proposition 1 ties survival to the
// existence of (γ,δ)-dense neighborhoods and δ-survival subsets, which
// is what lets survivors safely decide.
//
// The type here is a building block embedded by protocol state
// machines: the caller owns the payloads (plain probes, extant sets,
// completion sets) and the mapping from protocol rounds to probing
// rounds; Probing tracks only the pause/survive automaton.
package probe

// Probing is the per-node automaton for one instance of local probing.
// It keeps no round counter: the caller names the instance round of
// each observation, so a round whose observation would change nothing
// can be skipped without leaving anything to catch up on.
type Probing struct {
	neighbors []int
	gamma     int
	delta     int
	paused    bool
	done      bool
}

// New creates a probing instance lasting gamma rounds with survival
// threshold delta over the given overlay neighbors. The neighbor slice
// is not copied; overlay adjacency lists are immutable.
func New(neighbors []int, gamma, delta int) *Probing {
	if gamma < 1 {
		gamma = 1
	}
	if delta < 0 {
		delta = 0
	}
	return &Probing{neighbors: neighbors, gamma: gamma, delta: delta}
}

// Done reports whether the instance's last round has been observed.
func (p *Probing) Done() bool { return p.done }

// Active reports whether the node should send probes this round: it
// has not paused and the instance is not over.
func (p *Probing) Active() bool { return !p.paused && !p.done }

// SendTargets returns the neighbors to message this round, or nil if
// the node is paused or the instance is over.
func (p *Probing) SendTargets() []int {
	if !p.Active() {
		return nil
	}
	return p.neighbors
}

// Observe records that `count` probing messages arrived in instance
// round k (0-based). A count below δ pauses the node permanently for
// this instance; observing round γ−1 ends it. Observations after the
// end, or of a round outside [0, γ), are ignored.
func (p *Probing) Observe(k, count int) {
	if p.done || k < 0 || k >= p.gamma {
		return
	}
	if count < p.delta {
		p.paused = true
	}
	p.done = k == p.gamma-1
}

// Survived reports whether the node completed all γ rounds without
// pausing. Only meaningful once Done.
func (p *Probing) Survived() bool { return p.done && !p.paused }

// Paused reports whether the node paused prematurely.
func (p *Probing) Paused() bool { return p.paused }

// Reset rearms the automaton for a fresh instance over the same
// neighbors (gossip runs one instance per phase).
func (p *Probing) Reset() {
	p.paused = false
	p.done = false
}
