// Package expander is the overlay-network layer of the library. It
// turns the graph and spectral substrates into the objects the paper's
// algorithms consume:
//
//   - verified expander overlays standing in for Ramanujan graphs
//     G(n,d) (§3), with the quantities ℓ(n,d) = 4n·d^{-1/8} and
//     δ(d) = (d^{7/8} − d^{5/8})/2,
//   - the broadcast graph H of degree ≥ 64 used by Spread-Common-Value
//     (§4.2) and AB-Consensus (§7), and
//   - the inquiry-graph family G_i with degrees growing as 2^i
//     (Lemma 5 and the Many-Crashes Part 3 schedule).
//
// The survival subsets of the compactness proof (Theorem 2) and the
// (γ,δ)-dense-neighborhood predicate (§2) are oracles of the theorem
// tests, which check the built overlays against them.
//
// Substitution note (see DESIGN.md §3): the paper's constants are
// galactic (d = 5^8). We keep every formula but parameterize the
// degree; overlays are constructed from seeded random regular graphs
// and *verified* against the Ramanujan bound λ ≤ 2√(d−1)·(1+slack),
// deterministically re-seeding until the check passes.
package expander

import (
	"fmt"
	"math"

	"lineartime/internal/graph"
	"lineartime/internal/spectral"
)

// DefaultDegree is the laptop-scale overlay degree used when the
// caller does not choose one. It is even (the constructor needs n*d
// even for every n) and large enough that local probing with
// δ = d/4 tolerates the crash fractions in the paper's assumptions.
const DefaultDegree = 16

// Slack is the multiplicative tolerance on the Ramanujan bound an
// overlay must meet. Random regular graphs are near-Ramanujan, not
// exactly Ramanujan, and the power iteration is an estimate from below.
const Slack = 0.25

// seedRotations bounds the deterministic re-seeding loop of build.
const seedRotations = 16

// PaperEll returns ℓ(n,d) = 4n·d^{−1/8} from §3 (rounded down).
func PaperEll(n, d int) int {
	return int(4 * float64(n) * math.Pow(float64(d), -1.0/8.0))
}

// Params bundles the quantities an overlay exposes to local probing
// and the agreement algorithms.
type Params struct {
	// N is the number of vertices of the overlay.
	N int
	// Degree is the (regular) vertex degree d.
	Degree int
	// Delta is the survival threshold δ used by local probing: a node
	// pauses when it receives fewer than Delta messages in a probing
	// round. Scaled default: d/4. Paper formula: PaperDeltaFloat.
	Delta int
	// Gamma is the probing duration γ = 2 + ceil(lg N) (Theorem 3).
	Gamma int
	// Ell is ℓ: the set size at which compactness guarantees a
	// δ-survival subset of 3/4 of the vertices (Theorem 2). With
	// scaled constants we keep the paper's role: Ell = 4N·d^{−1/8}
	// capped at N.
	Ell int
}

// Overlay is a verified expander overlay network.
type Overlay struct {
	G      *graph.Graph
	P      Params
	Lambda float64 // estimated second eigenvalue
	// Seed is the seed that passed verification; 0 on a complete graph,
	// which consumes none (one K_n serves every seed, see cache.go).
	Seed uint64
}

// Options configures overlay construction.
type Options struct {
	Degree int    // 0 → DefaultDegree (or n-1 for tiny n)
	Delta  int    // 0 → Degree/4 (min 1)
	Seed   uint64 // base seed; rotation appends attempt index
}

// New returns a verified expander overlay on n vertices.
//
// For n ≤ Degree+1 the overlay degenerates to the complete graph K_n,
// which is the best possible expander and keeps every protocol correct
// on tiny instances; the seed plays no part there, and
// Overlay.Seed reports 0.
//
// New is memoized (see cache.go): equal arguments may return the same
// *Overlay, shared with every other caller. Overlays are immutable;
// callers must not modify one.
func New(n int, opts Options) (*Overlay, error) {
	return overlays.get(n, opts)
}

// degreeFor resolves the degree New(n, opts) builds with from the
// requested one: 0 means DefaultDegree; n ≤ d+1 clamps to n−1, the
// complete graph K_n; otherwise an odd n·d gets one more degree, since
// a d-regular graph needs n·d even (and one extra degree only helps
// expansion).
func degreeFor(n, d int) (degree int, complete bool) {
	if d == 0 {
		d = DefaultDegree
	}
	if n <= d+1 {
		return n - 1, true
	}
	if n*d%2 != 0 {
		d++
	}
	return d, false
}

// ParamsOf returns the Params of the overlay New(n, opts) builds,
// without building it: they depend on n, the degree and δ alone, never
// on the seed.
func ParamsOf(n int, opts Options) Params {
	d, _ := degreeFor(n, opts.Degree)
	return paramsFor(n, d, opts.Delta)
}

// build constructs and verifies the overlay New(n, opts) names, and
// reports how many seeds it rejected on the way.
func build(n int, opts Options) (o *Overlay, rotated int, err error) {
	if n <= 0 {
		return nil, 0, fmt.Errorf("expander: overlay needs n > 0, got %d", n)
	}
	d, complete := degreeFor(n, opts.Degree)
	if complete {
		g := graph.Complete(n)
		return &Overlay{G: g, P: paramsFor(n, d, opts.Delta), Lambda: 1}, 0, nil
	}

	var lastErr error
	for attempt := 0; attempt < seedRotations; attempt++ {
		seed := opts.Seed + uint64(attempt)*0x9e3779b97f4a7c15
		g, err := graph.RandomRegular(n, d, seed)
		if err != nil {
			lastErr = err
			continue
		}
		// Dense overlays (d ≥ n/4) are far above any expansion
		// threshold the protocols need; verifying them costs O(n·m)
		// per power iteration for no information. Skip it, but still
		// require connectivity.
		if 4*d >= n {
			if g.IsConnected() {
				return &Overlay{G: g, P: paramsFor(n, d, opts.Delta), Lambda: math.NaN(), Seed: seed}, attempt, nil
			}
			lastErr = fmt.Errorf("expander: seed %d gave a disconnected graph", seed)
			continue
		}
		ok, lambda := spectral.IsNearRamanujan(g, d, Slack, spectral.Options{Seed: seed})
		if ok && g.IsConnected() {
			return &Overlay{G: g, P: paramsFor(n, d, opts.Delta), Lambda: lambda, Seed: seed}, attempt, nil
		}
		lastErr = fmt.Errorf("expander: seed %d gave λ=%.3f > (1+%.2f)·%.3f or disconnected",
			seed, lambda, Slack, spectral.RamanujanBound(d))
	}
	return nil, seedRotations, fmt.Errorf("expander: no verified overlay for n=%d d=%d after %d seeds: %w",
		n, d, seedRotations, lastErr)
}

// Neighbors returns the sorted neighbor list of v: the stored slice,
// which callers must not modify.
func (o *Overlay) Neighbors(v int) []int { return o.G.Neighbors(v) }

func paramsFor(n, d, delta int) Params {
	if delta == 0 {
		delta = d / 4
		if delta < 1 {
			delta = 1
		}
	}
	gamma := 2 + ceilLog2(n)
	ell := PaperEll(n, d)
	if ell > n {
		ell = n
	}
	return Params{N: n, Degree: d, Delta: delta, Gamma: gamma, Ell: ell}
}

// ceilLog2 returns ceil(log2(n)) for n >= 1, and 0 for n <= 1.
func ceilLog2(n int) int {
	k, v := 0, 1
	for v < n {
		v <<= 1
		k++
	}
	return k
}

// CeilLog2 exposes ceilLog2 for the protocol schedules (phase counts
// like ⌈lg n⌉ and ⌈lg(t+1)⌉ appear throughout §4–§6).
func CeilLog2(n int) int { return ceilLog2(n) }
