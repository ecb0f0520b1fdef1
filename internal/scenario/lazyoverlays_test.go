package scenario

import (
	"bytes"
	"fmt"
	"testing"

	"lineartime/internal/expander"
	"lineartime/internal/sim"
)

// overlaysAsked returns how many overlays the process-wide cache was
// asked for since before: the ones it built and the ones it had.
func overlaysAsked(before expander.CacheStats) (built, had int64) {
	now := expander.Stats()
	return now.Misses - before.Misses, now.Hits - before.Hits
}

// TestGossipBuildsOnlyConsultedOverlays pins what a gossip run pays for
// on the serve-heavy shape (gossip/expander n=128 t=24). Fault-free on
// a fresh seed it builds the little overlay and G_1 and asks for nothing
// else — before the phase openers were gated it also built G_2…G_4 and
// the never-read H and fetched the shared K_128 three times. With t
// random crashes it asks for G_1…G_k, k the last phase whose opening
// round carried an inquiry or a push. Checkpointing, which does read H,
// still has it built before the first round.
func TestGossipBuildsOnlyConsultedOverlays(t *testing.T) {
	const n, tt = 128, 24
	d := MustLookup("gossip/expander")
	for seed := uint64(1); seed <= 3; seed++ {
		before := expander.Stats()
		if _, err := Run(d.Spec(n, tt, 0x1a2e0000+seed)); err != nil {
			t.Fatal(err)
		}
		if built, had := overlaysAsked(before); built != 2 || had != 0 {
			t.Fatalf("seed %d: fault-free gossip built %d overlays and fetched %d, want 2 and 0", seed, built, had)
		}
	}

	phases := expander.CeilLog2(n)
	deepest := 0
	for seed := uint64(1); seed <= 4; seed++ {
		sp := d.Spec(n, tt, 0x1a2e0100+seed)
		fault, err := ParseFault(fmt.Sprintf("random-crashes:count=%d,horizon=30,seed=%d", tt, seed))
		if err != nil {
			t.Fatal(err)
		}
		sp.Fault = fault
		before := expander.Stats()
		_, res, err := runSpec(sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		built, had := overlaysAsked(before)
		// Both parts run the same phases; phase i opens at i·phaseLen.
		perRound := res.Metrics.PerRoundMessages
		phaseLen := len(perRound) / (2 * phases)
		last := 0
		for part := 0; part < 2; part++ {
			for i := 0; i < phases; i++ {
				if perRound[(part*phases+i)*phaseLen] > 0 {
					last = max(last, i+1)
				}
			}
		}
		if want := int64(1 + last); built+had != want {
			t.Fatalf("seed %d: crashed gossip asked for %d overlays, want the little overlay and G_1…G_%d", seed, built+had, last)
		}
		deepest = max(deepest, last)
	}
	if deepest < 3 {
		t.Fatalf("no crashed run consulted an inquiry graph beyond G_%d; pick other fault seeds", deepest)
	}

	before := expander.Stats()
	var atStart int64
	_, _, err := runSpec(MustLookup("checkpoint/expander").Spec(n, tt, 0x1a2e0200), func(ps []sim.Protocol) []sim.Protocol {
		atStart, _ = overlaysAsked(before)
		return ps
	})
	if err != nil {
		t.Fatal(err)
	}
	if atStart != 2 {
		t.Fatalf("checkpointing had built %d overlays when its run started, want the little overlay and H", atStart)
	}
}

// TestLazyOverlaysMatchEager pins that when an overlay is built never
// shows in a report. Every registry row, */chaos rows included, runs
// under 8 seeds nothing else uses, on both engines: first cold, where H
// and each G_i are built by whichever node first consults them — under
// the parallel engine many nodes at once, so run this under -race — and
// only if one does; then again after every overlay the row's topology
// could consult, read or not, has been built up front and is resident in
// the overlay cache. The two reports encode to the same bytes.
func TestLazyOverlaysMatchEager(t *testing.T) {
	seeds := uint64(8)
	if testing.Short() {
		seeds = 2
	}
	engines := map[string]Parallelism{"sequential": Serial, "parallel": {Enabled: true, Workers: 4}}
	for row, d := range All() {
		n, tt := 50, 8
		if d.Problem == ByzantineConsensus {
			tt = 4
		}
		for name, exec := range engines {
			if exec.Enabled && d.Port == SinglePort {
				continue
			}
			// The race detector has nothing to find in a sequential run.
			for seed := uint64(1); seed <= seeds && (seed <= 2 || exec.Enabled || !raceEnabled); seed++ {
				sp := d.Spec(n, tt, 0x1a270000+uint64(row)<<8+uint64(len(name))<<4+seed)
				sp.Exec = exec
				tag := fmt.Sprintf("%s seed=%d %s", d.Name, seed, name)
				lazy := reportJSON(t, tag, sp)
				// Twice: the cache retains an overlay at its second sight.
				for i := 0; i < 2; i++ {
					top, err := sp.newTopology()
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					if _, err := top.Broadcast(); err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					for i := 1; i <= expander.CeilLog2(n); i++ {
						if _, err := top.Inquiry.Phase(i); err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
					}
				}
				before := expander.Stats()
				eager := reportJSON(t, tag, sp)
				if built, _ := overlaysAsked(before); built != 0 && onlyTopologyOverlays(d) {
					t.Fatalf("%s: the eager run still built %d overlays", tag, built)
				}
				if !bytes.Equal(lazy, eager) {
					t.Fatalf("%s: report depends on when its overlays were built\nlazy  %s\neager %s", tag, lazy, eager)
				}
			}
		}
	}
}

// onlyTopologyOverlays reports whether every overlay the row reads is
// one of its consensus.Topology: the many-crashes, Byzantine and
// single-port gossip stacks build further ones of their own.
func onlyTopologyOverlays(d Definition) bool {
	switch d.Algorithm {
	case FewCrashes, GossipExpander, CheckpointExpander, AEA, SCV, Majority:
		return d.Port == MultiPort
	}
	return false
}

// reportJSON runs the spec and returns its report's encoding.
func reportJSON(t *testing.T, tag string, sp Spec) []byte {
	t.Helper()
	rep, err := Run(sp)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	body, err := rep.AppendJSON(nil)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	return body
}
