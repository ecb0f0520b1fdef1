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

// checkKernels pins, for one message, every kernel lane's verdict
// against that lane's own FilterLink — and that lanes outside `in`
// appear in no mask.
func checkKernels(t *testing.T, filters []sim.LinkFilter, round int, from, to int32, in uint64) {
	t.Helper()
	kernel, drop, byK := sim.LaneKernelSplit(filters, round, from, to, in)
	outside := drop
	for _, l := range byK {
		outside |= l
	}
	if outside &^= in & kernel; outside != 0 {
		t.Fatalf("round %d %d→%d: lanes %#x classified outside the message's kernel lanes", round, from, to, outside)
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
			t.Fatalf("lane %d (%T %+v) round %d %d→%d: kernel verdict %d, FilterLink %d",
				lane, f, f.(sim.KernelFilter).LinkKernel(), round, from, to, got, want)
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
