package gossip

import (
	"math"
	"testing"

	"lineartime/internal/consensus"
	"lineartime/internal/sim"
)

// TestMessageScalingLinear is the metamorphic check behind the Table 1
// gossip row: at the claimed boundary t = n/lg²n, doubling n from 512
// to 1024 must grow the message count by at most ~2^1.4 — i.e., the
// per-node message cost stays bounded once out of the small-size
// constant regime (Theorem 9's O(n + t log n log t) with t at the
// boundary is O(n)).
func TestMessageScalingLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep skipped in -short mode")
	}
	run := func(n int) int64 {
		tt := int(float64(n) / math.Pow(math.Log2(float64(n)), 2))
		if tt < 1 {
			tt = 1
		}
		top, err := consensus.NewTopology(n, tt, consensus.TopologyOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ms := make([]*Gossip, n)
		ps := make([]sim.Protocol, n)
		for i := 0; i < n; i++ {
			ms[i] = New(i, top, Rumor(i))
			ps[i] = ms[i]
		}
		res, err := sim.Run(sim.Config{Protocols: ps, MaxRounds: top.Schedule.Gossip + 8})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.Messages
	}
	m512, m1024 := run(512), run(1024)
	exponent := math.Log2(float64(m1024) / float64(m512))
	if exponent > 1.4 {
		t.Fatalf("message growth exponent %.2f for n: 512→1024 (msgs %d→%d); want ≤ 1.4 (linear shape)",
			exponent, m512, m1024)
	}
}
