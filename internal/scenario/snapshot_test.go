package scenario

import (
	"testing"

	"lineartime/internal/bitset"
	"lineartime/internal/gossip"
	"lineartime/internal/sim"
)

// snapshotWatch deep-copies every set-carrying payload the first time
// the engine sees it sent.
type snapshotWatch struct {
	extant     map[*gossip.ExtantSet]*gossip.ExtantSet
	completion map[*bitset.Set]*bitset.Set
	carried    int // messages carrying a set
}

func (w *snapshotWatch) OnMessage(_ int, env sim.Envelope) {
	switch p := env.Payload.(type) {
	case gossip.ExtantPayload:
		w.carried++
		if _, seen := w.extant[p.Set]; !seen {
			w.extant[p.Set] = p.Set.Clone()
		}
	case gossip.CompletionPayload:
		w.carried++
		if _, seen := w.completion[p.Set]; !seen {
			w.completion[p.Set] = p.Set.Clone()
		}
	}
}
func (*snapshotWatch) OnCrash(int, sim.NodeID) {}
func (*snapshotWatch) OnHalt(int, sim.NodeID)  {}

// TestGossipSnapshotsImmutable pins the copy-on-change rule of the
// scalar gossip stack: a set handed to the engine as a payload is never
// written again, although its sender keeps merging and — under the
// delay rows — the message parks in the delay ring for rounds before
// anyone reads it. Every payload is deep-copied when first sent and
// compared once the run is over (sets only grow, so equal at the end
// means equal at every receipt in between).
func TestGossipSnapshotsImmutable(t *testing.T) {
	for _, name := range []string{"gossip/expander/delay", "gossip/expander/chaos", "gossip/expander/single-port"} {
		sp := MustLookup(name).Spec(96, 16, 0x5eed)
		w := &snapshotWatch{
			extant:     make(map[*gossip.ExtantSet]*gossip.ExtantSet),
			completion: make(map[*bitset.Set]*bitset.Set),
		}
		sp.Observer = w
		if _, err := Run(sp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for got, want := range w.extant {
			if got.Count() != want.Count() || !got.Known().Equal(want.Known()) {
				t.Fatalf("%s: an extant snapshot grew after it was sent (%d pairs, %d when sent)", name, got.Count(), want.Count())
			}
			want.Known().ForEach(func(j int) {
				if got.Rumor(j) != want.Rumor(j) {
					t.Fatalf("%s: an extant snapshot's rumor for %d changed after it was sent", name, j)
				}
			})
		}
		for got, want := range w.completion {
			if !got.Equal(want) {
				t.Fatalf("%s: a completion snapshot changed after it was sent: %v, was %v", name, got, want)
			}
		}
		// The rule must also share: far fewer snapshots than messages
		// that carry one.
		snapshots := len(w.extant) + len(w.completion)
		if snapshots == 0 || snapshots*4 > w.carried {
			t.Fatalf("%s: %d snapshots for %d set-carrying messages", name, snapshots, w.carried)
		}
	}
}
