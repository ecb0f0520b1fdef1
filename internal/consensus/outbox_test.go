package consensus

import (
	"testing"

	"lineartime/internal/sim"
)

// TestOutboxCapsMatchDefinition pins the outbox plan, computed once per
// topology, against the caps written out per node — the larger of a
// little node's little degree and its (n−i−1)/l related nodes, and the
// broadcast degree — and the slab length against their sum, on sizes
// where l divides n−1 and where it does not; every carved buffer has
// exactly its node's caps.
func TestOutboxCapsMatchDefinition(t *testing.T) {
	for _, c := range []struct{ n, t int }{{2, 0}, {6, 1}, {11, 2}, {60, 10}, {61, 3}, {100, 7}, {256, 50}} {
		tp, err := NewTopology(c.n, c.t, TopologyOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		h := tp.MustBroadcast()
		total := 0
		slab := make([]sim.Envelope, tp.OutboxSlabLen())
		rest := slab
		for id := 0; id < tp.N; id++ {
			var aea int
			if tp.IsLittle(id) {
				aea = max(tp.Little.G.Degree(id), (tp.N-id-1)/tp.L)
			}
			scv := h.G.Degree(id)
			total += aea + scv
			var f FewCrashes
			f.Init(id, tp, true)
			rest = f.CarveOutboxes(rest)
			if cap(f.aea.out) != aea || cap(f.scv.out) != scv {
				t.Fatalf("n=%d t=%d node %d: carved caps %d, %d; want %d, %d", c.n, c.t, id, cap(f.aea.out), cap(f.scv.out), aea, scv)
			}
		}
		if got := tp.OutboxSlabLen(); got != total || len(rest) != 0 {
			t.Fatalf("n=%d t=%d: slab length %d (%d left after carving), want %d", c.n, c.t, got, len(rest), total)
		}
	}
}
