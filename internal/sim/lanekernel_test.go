package sim_test

import (
	"math"
	"math/bits"
	"testing"

	"lineartime/internal/link"
	"lineartime/internal/rng"
	"lineartime/internal/sim"
)

// kernelVerdict decodes one lane's verdict from the kernels' masks.
func kernelVerdict(lane int, drop uint64, byK []uint64) sim.Verdict {
	b := uint64(1) << lane
	if drop&b != 0 {
		return sim.Drop
	}
	for k, l := range byK {
		if l&b != 0 {
			return sim.DelayBy(k)
		}
	}
	return sim.Deliver
}

// checkKernels pins, for one message and on every kernel path this CPU
// runs, every kernel lane's verdict against that lane's own FilterLink
// — and that lanes outside `in` appear in no mask.
func checkKernels(t *testing.T, filters []sim.LinkFilter, round int, from, to int32, in uint64) {
	t.Helper()
	for _, vector := range sim.KernelPaths() {
		checkKernelPath(t, filters, round, from, to, in, vector)
	}
}

func checkKernelPath(t *testing.T, filters []sim.LinkFilter, round int, from, to int32, in uint64, vector bool) {
	t.Helper()
	kernel, drop, byK := sim.LaneKernelSplit(filters, round, from, to, in, vector)
	outside := drop
	for _, l := range byK {
		outside |= l
	}
	if outside &^= in & kernel; outside != 0 {
		t.Fatalf("vector=%v round %d %d→%d: lanes %#x classified outside the message's kernel lanes", vector, round, from, to, outside)
	}
	for lane, f := range filters {
		if f == nil {
			continue
		}
		if kernel>>lane&1 == 0 {
			t.Fatalf("lane %d: %T did not compile into a kernel", lane, f)
		}
		if in>>lane&1 == 0 {
			continue
		}
		want := f.FilterLink(round, sim.Envelope{From: int(from), To: int(to), Payload: sim.Bit(true)})
		if got := kernelVerdict(lane, drop, byK); got != want {
			t.Fatalf("vector=%v lane %d (%T %+v) round %d %d→%d: kernel verdict %d, FilterLink %d",
				vector, lane, f, f.(sim.KernelFilter).LinkKernel(), round, from, to, got, want)
		}
	}
}

// TestLaneKernelsMatchFilterLink is the differential test of the lane
// kernels: for random mixes of the three families over random lane
// subsets — omission at rate 0, 1 and in between; delay d in 0..5, so
// the &1, %3 and generic-modulus arms all run; partitions cut at 0, 1,
// n/2 and n with windows touching round 0 and the last round — every
// lane's kernel verdict equals that lane's FilterLink verdict on random
// (round, from, to) and random message lane masks.
func TestLaneKernelsMatchFilterLink(t *testing.T) {
	const n, rounds = 40, 24
	r := rng.New(0x1a9e)
	rates := []float64{0, 1, 0.5, 0.03, 0.97, 1e-9}
	cuts := []int{0, 1, n / 2, n, 7}
	for trial := 0; trial < 200; trial++ {
		filters := make([]sim.LinkFilter, sim.MaxLanes)
		for lane := range filters {
			seed := r.Uint64()
			switch r.Intn(5) {
			case 0: // unfiltered lane
			case 1:
				filters[lane] = link.NewOmission(rates[r.Intn(len(rates))], seed)
			case 2:
				filters[lane] = link.NewDelay(r.Intn(6), seed)
			default:
				start := r.Intn(rounds)
				if r.Intn(3) == 0 {
					start = 0
				}
				end := start + r.Intn(rounds-start+1) // empty windows included
				if r.Intn(3) == 0 {
					end = rounds
				}
				filters[lane] = link.NewPartition(start, end, cuts[r.Intn(len(cuts))])
			}
		}
		for probe := 0; probe < 300; probe++ {
			in := r.Uint64()
			if probe%7 == 0 {
				in = ^uint64(0)
			}
			round := r.Intn(rounds + 1)
			if probe%11 == 0 {
				round = (rounds - 1) * (probe / 11 % 2) // first and last round
			}
			checkKernels(t, filters, round, int32(r.Intn(n)), int32(r.Intn(n)), in)
		}
	}
}

// FuzzLaneKernel fuzzes one lane's filter parameters and one message's
// coordinates — far outside any run's range — against FilterLink, among
// a fixed background of the other families so lanes cannot leak into
// each other's masks.
func FuzzLaneKernel(f *testing.F) {
	f.Add(uint8(0), uint64(1), 0.05, 2, 1, 4, 20, 3, int32(1), int32(30), uint8(0), ^uint64(0))
	f.Add(uint8(1), uint64(7), 1.0, 5, 0, 0, 0, 0, int32(0), int32(0), uint8(63), uint64(1)<<63)
	f.Add(uint8(2), ^uint64(0), 0.0, 0, 0, math.MaxInt, math.MaxInt, math.MaxInt-1, int32(math.MaxInt32), int32(math.MinInt32), uint8(17), uint64(0x5555555555555555))
	f.Add(uint8(1), uint64(3), 0.5, 1<<40, -5, 5, -3, -1, int32(-4), int32(2), uint8(9), ^uint64(0))
	f.Fuzz(func(t *testing.T, kind uint8, seed uint64, rate float64, d, start, end, cut, round int, from, to int32, lane uint8, in uint64) {
		filters := make([]sim.LinkFilter, sim.MaxLanes)
		for l := range filters {
			switch l % 4 {
			case 0:
				filters[l] = link.NewOmission(0.3, uint64(l))
			case 1:
				filters[l] = link.NewDelay(1+l%4, uint64(l))
			case 2:
				filters[l] = link.NewPartition(2, 9, l)
			}
		}
		// The delay ring is sized by d; keep the fuzzed bound allocatable.
		d = int(uint(d) % 4096)
		switch kind % 3 {
		case 0:
			filters[lane%64] = link.NewOmission(rate, seed)
		case 1:
			filters[lane%64] = link.NewDelay(d, seed)
		default:
			filters[lane%64] = link.NewPartition(start, end, cut)
		}
		checkKernels(t, filters, round, from, to, in|uint64(1)<<(lane%64))
	})
}

// TestLinkHashSplit pins the key/finish split against the splitmix64
// finalizer written out: the hash is the finish of seed ^ key, and the
// key is linear in the coordinates, which is what lets a word message
// pay for it once.
func TestLinkHashSplit(t *testing.T) {
	r := rng.New(7)
	for i := 0; i < 1000; i++ {
		seed, round, from, to := r.Uint64(), r.Intn(1<<20), r.Intn(1<<20), r.Intn(1<<20)
		x := seed
		x ^= uint64(round) * 0x9e3779b97f4a7c15
		x ^= uint64(from) * 0xbf58476d1ce4e5b9
		x ^= uint64(to) * 0x94d049bb133111eb
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if got := sim.LinkHashFinish(seed ^ sim.LinkHashKey(round, from, to)); got != x {
			t.Fatalf("link hash of (%d, %d, %d, %d) = %#x, want %#x", seed, round, from, to, got, x)
		}
	}
	if bits.OnesCount64(sim.LinkHashKey(0, 0, 0)) != 0 {
		t.Fatal("the key of the origin must be zero")
	}
}

// invOdd is the inverse of the odd c modulo 2^64 (Newton's iteration).
func invOdd(c uint64) uint64 {
	x := c
	for i := 0; i < 6; i++ {
		x *= 2 - c*x
	}
	return x
}

// unshift inverts x ^= x >> s.
func unshift(y uint64, s uint) uint64 {
	x := y
	for i := uint(0); i < 64/s+1; i++ {
		x = y ^ x>>s
	}
	return x
}

// unfinish inverts LinkHashFinish, so a test can choose the hash a lane
// sees: LinkHashFinish(unfinish(h)) == h.
func unfinish(h uint64) uint64 {
	x := unshift(h, 31)
	x *= invOdd(0x94d049bb133111eb)
	x = unshift(x, 27)
	x *= invOdd(0xbf58476d1ce4e5b9)
	return unshift(x, 30)
}

// TestHashKernelMatchesGo is the differential test of the link-hash
// kernel: for 0 to 64 hashed lanes spread over omission, d = 1 and
// d = 2 (so no family's count need be a multiple of 8), among
// partition and d = 0 lanes, both paths return exactly the verdicts
// each lane's hash gives. Thresholds include 0, 1, 2^64−1 and the rates
// 1–5 %; some lanes' seeds are solved so that their hash is a chosen
// value — a multiple of 3 or near 2^64 for d = 2, the threshold or
// either side of it for omission.
func TestHashKernelMatchesGo(t *testing.T) {
	if len(sim.KernelPaths()) == 1 {
		t.Log("no AVX-512 F/DQ/VL + BMI2: only the portable loops run")
	}
	r := rng.New(0x3a5)
	thresholds := []uint64{0, 1, math.MaxUint64}
	for pct := 1; pct <= 5; pct++ {
		thresholds = append(thresholds, uint64(float64(pct)/100*(1<<64)))
	}
	mod3Targets := []uint64{0, 3, 6, 1 << 33 * 3, math.MaxUint64, math.MaxUint64 - 1, math.MaxUint64 - 2, math.MaxUint64 - 3, math.MaxUint64 / 3 * 3, 1<<32 - 1, 1 << 32, 1<<33 - 2}
	for count := 0; count <= sim.MaxLanes; count++ {
		for trial := 0; trial < 30; trial++ {
			key := r.Uint64()
			decls := make([]sim.LinkKernel, sim.MaxLanes)
			hashed := r.Perm(sim.MaxLanes)[:count]
			for _, lane := range hashed {
				seed := r.Uint64()
				switch r.Intn(3) {
				case 0:
					thr := thresholds[r.Intn(len(thresholds))]
					if r.Intn(3) == 0 && thr > 0 && thr < math.MaxUint64 {
						seed = unfinish(thr-1+uint64(r.Intn(3))) ^ key
					}
					decls[lane] = sim.LinkKernel{Kind: sim.KernelOmission, Seed: seed, Threshold: thr}
				case 1:
					decls[lane] = sim.LinkKernel{Kind: sim.KernelDelay, Seed: seed, Delay: 1}
				default:
					if r.Intn(2) == 0 {
						seed = unfinish(mod3Targets[r.Intn(len(mod3Targets))]) ^ key
					}
					decls[lane] = sim.LinkKernel{Kind: sim.KernelDelay, Seed: seed, Delay: 2}
				}
			}
			for lane := range decls {
				if decls[lane].Kind == 0 && r.Intn(4) == 0 {
					decls[lane] = sim.LinkKernel{Kind: sim.KernelPartition, Start: 0, End: 5, Cut: 3}
					if r.Intn(2) == 0 {
						decls[lane] = sim.LinkKernel{Kind: sim.KernelDelay, Seed: r.Uint64()}
					}
				}
			}
			var wantDrop, want1, want2 uint64
			for lane, d := range decls {
				h, b := sim.LinkHashFinish(d.Seed^key), uint64(1)<<lane
				switch {
				case d.Kind == sim.KernelOmission && h < d.Threshold:
					wantDrop |= b
				case d.Kind == sim.KernelDelay && d.Delay > 0 && h%uint64(d.Delay+1) == 1:
					want1 |= b
				case d.Kind == sim.KernelDelay && d.Delay > 0 && h%uint64(d.Delay+1) == 2:
					want2 |= b
				}
			}
			for _, vector := range sim.KernelPaths() {
				drop, k1, k2 := sim.HashVerdicts(decls, key, vector)
				if drop != wantDrop || k1 != want1 || k2 != want2 {
					t.Fatalf("vector=%v, %d hashed lanes, key %#x: drop, k1, k2 = %#x, %#x, %#x; want %#x, %#x, %#x",
						vector, count, key, drop, k1, k2, wantDrop, want1, want2)
				}
			}
		}
	}
}

// TestUnfinishInvertsLinkHash pins the test's inverse of the finisher.
func TestUnfinishInvertsLinkHash(t *testing.T) {
	r := rng.New(5)
	for i := 0; i < 1000; i++ {
		h := r.Uint64()
		if got := sim.LinkHashFinish(unfinish(h)); got != h {
			t.Fatalf("LinkHashFinish(unfinish(%#x)) = %#x", h, got)
		}
	}
}
