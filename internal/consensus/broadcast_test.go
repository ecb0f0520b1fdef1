package consensus_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"lineartime/internal/consensus"
	"lineartime/internal/expander"
	"lineartime/internal/scenario"
)

// TestBroadcastGraphIsBuiltOnceOnDemand pins the lazy accessor: no H
// is constructed by NewTopology, the first Broadcast call constructs it
// — one construction however many nodes ask at once (run under -race) —
// from the seed the eager field used, so the graph is the one
// NewTopology has always built.
func TestBroadcastGraphIsBuiltOnceOnDemand(t *testing.T) {
	var mu sync.Mutex
	builds := 0
	restore := consensus.StubBroadcastGraph(func(n int, seed uint64) (*expander.Overlay, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		return expander.NewBroadcastGraph(n, seed)
	})
	defer restore()

	const n, seed = 150, 0xb40adca57
	top, err := consensus.NewTopology(n, 20, consensus.TopologyOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if builds != 0 {
		t.Fatal("NewTopology built H")
	}
	got := make([]*expander.Overlay, 32)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = top.MustBroadcast()
		}()
	}
	wg.Wait()
	h, err := top.Broadcast()
	if err != nil || builds != 1 {
		t.Fatalf("%d constructions of H, err %v", builds, err)
	}
	for i, o := range got {
		if o != h {
			t.Fatalf("caller %d got a different H", i)
		}
	}
	want, err := expander.NewBroadcastGraph(n, seed+2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Seed != want.Seed || h.P != want.P {
		t.Fatalf("H has seed %d and %+v, the eager field held seed %d and %+v", h.Seed, h.P, want.Seed, want.P)
	}
	for v := 0; v < n; v++ {
		if !slices.Equal(h.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("H differs from the eager graph at vertex %d", v)
		}
	}
}

// TestUnbuildableBroadcastGraph gives every topology an H that fails
// as one that exhausts its seed rotations does. The families that consult H — few-crashes, SCV,
// checkpointing, majority, the single-port compilations — fail while the
// run is materialized, with an error and before any machine could panic
// on it; gossip and AEA, which never read H, never ask for it and run to
// completion.
func TestUnbuildableBroadcastGraph(t *testing.T) {
	attempts := 0
	restore := consensus.StubBroadcastGraph(func(n int, seed uint64) (*expander.Overlay, error) {
		attempts++
		return nil, fmt.Errorf("broadcast graph H: expander: no verified overlay for n=%d seed=%d", n, seed)
	})
	defer restore()

	const n, tt = 100, 10
	for _, row := range []string{
		"consensus/few-crashes", "consensus/few-crashes/chaos", "consensus/single-port", "scv/expander",
		"checkpoint/expander", "checkpoint/expander/single-port", "majority/expander",
	} {
		attempts = 0
		rep, err := scenario.Run(scenario.MustLookup(row).Spec(n, tt, 0xbad4))
		if err == nil || rep != nil || !strings.Contains(err.Error(), "no verified overlay") {
			t.Fatalf("%s: ran on a topology whose H cannot be built (err %v)", row, err)
		}
		if attempts != 1 {
			t.Fatalf("%s: %d attempts at H, want one, by materialize", row, attempts)
		}
	}
	for _, row := range []string{"gossip/expander", "gossip/expander/chaos", "gossip/expander/single-port", "aea/expander"} {
		attempts = 0
		if _, err := scenario.Run(scenario.MustLookup(row).Spec(n, tt, 0xbad4)); err != nil {
			t.Fatalf("%s: %v", row, err)
		}
		if attempts != 0 {
			t.Fatalf("%s: asked for H %d times; it never reads it", row, attempts)
		}
	}
}
