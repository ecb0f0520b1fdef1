package expander

import (
	"testing"

	"lineartime/internal/bitset"
	"lineartime/internal/rng"
)

// overlaySeed is the next seed BenchmarkOverlayConstruction draws.
// Overlays are cached process-wide and admitted on a key's second
// sight, so a benchmark that reused seeds would time cache hits from
// its third rerun on; every iteration asks for a seed nothing used
// before, across -count reruns included.
var overlaySeed uint64 = 0x0e7a_0000_0000

// BenchmarkOverlayConstruction times New on keys it never repeats: the
// build, the spectral gate and the connectivity check of a fresh
// overlay. The serve-heavy pair are the two overlays a fault-free
// gossip request of the repository benchmark's serve-heavy workload
// (n=128 t=24) builds: the little overlay on 120 nodes and G_1.
func BenchmarkOverlayConstruction(b *testing.B) {
	for _, c := range []struct {
		name      string
		n, degree int
	}{
		{"serve-heavy/n=120/d=16", 120, 16},
		{"serve-heavy/n=128/d=8", 128, 8},
		{"n=128", 128, 0},
		{"n=512", 512, 0},
		{"n=2048", 2048, 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				overlaySeed++
				if _, err := New(c.n, Options{Degree: c.degree, Seed: overlaySeed}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSurvivalSubset(b *testing.B) {
	o, err := New(1024, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	set := bitset.New(1024)
	r := rng.New(7)
	for set.Count() < 800 {
		set.Add(r.Intn(1024))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := o.SurvivalSubset(set, o.P.Delta)
		if c.Count() == 0 {
			b.Fatal("empty survival subset")
		}
	}
}

func BenchmarkDenseNeighborhood(b *testing.B) {
	o, err := New(512, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	all := bitset.New(512)
	all.Fill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !o.HasDenseNeighborhood(i%512, all, o.P.Gamma, o.P.Delta) {
			b.Fatal("fault-free dense neighborhood missing")
		}
	}
}
