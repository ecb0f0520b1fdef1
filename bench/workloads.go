package main

import (
	"encoding/json"
	"fmt"

	"lineartime/internal/scenario"
	"lineartime/internal/serve"
)

// The scenario shapes the workloads request. They are the sizes the
// issue's sizing measurements were taken at.
const (
	consensusScenario = "consensus/few-crashes"
	consensusN        = 256
	consensusT        = 50

	gossipScenario = "gossip/expander"
	gossipN        = 128
	gossipT        = 24

	lanesN       = 192
	lanesT       = 36
	lanesPerCall = 64

	// hotConsensusKeys + hotGossipKeys is the serve-hot working set:
	// ≈1 KB and ≈135 KB bodies, under 9 MB together, well inside the
	// daemon's default 64 MiB cache.
	hotConsensusKeys = 192
	hotGossipKeys    = 64

	// coldSeedPool is how many distinct overlays recur on serve-cold:
	// the spec seed cycles through this many values while the fault
	// seed is fresh on every request.
	coldSeedPool = 16
)

// workload is one traffic mix. A serve workload (request != nil) is a
// closed loop of clients POSTing /v1/run to the daemon; batch-lanes
// (batch != nil) is a single caller of scenario.ExecuteBatch.
type workload struct {
	name string
	why  string
	// tailPct is the percentile lat_tail_ms reports on this workload
	// (README.md, "Workloads", says how each was chosen).
	tailPct float64
	clients int
	// warmup is the fixed number of ops run before timing starts; its
	// wall time from process start is setup_s.
	warmup int
	// daemonArgs are the flags the daemon is started with beyond its
	// listen address; nil means the defaults.
	daemonArgs []string

	// request returns op i of the stream for seed. Warm-up takes ops
	// [0, warmup) — on serve-hot those are the working-set fills — and
	// the timed window continues from there.
	request func(seed uint64, i int) serve.RunRequest
	// batch returns the specs of ExecuteBatch call i.
	batch func(seed uint64, i int) ([]scenario.Spec, error)

	// hitRatio is the /metrics cache hit ratio the timed window must
	// show (serve workloads), evicts whether it must evict.
	hitRatio float64
	evicts   bool
	// guaranteed marks reports that must show the paper's guarantee
	// (agreement, validity, termination): crashes ≤ t.
	guaranteed bool
}

var workloads = []*workload{
	{
		name:     "serve-hot",
		why:      "POST /v1/run drawn from 256 pre-warmed keys, 100% cache hits: serve and net/http do all the work, sim none (lat_tail_ms = p99)",
		tailPct:  99,
		clients:  2,
		warmup:   hotConsensusKeys + hotGossipKeys,
		request:  hotRequest,
		hitRatio: 1,
	},
	{
		name:       "serve-cold",
		why:        "POST /v1/run consensus n=256, every key distinct over 16 recurring overlays, 0% hits: topology build is half of each request (lat_tail_ms = p99)",
		tailPct:    99,
		clients:    2,
		warmup:     256,
		request:    coldRequest,
		guaranteed: true,
		evicts:     true,
		daemonArgs: []string{"-cache-bytes", "262144"},
	},
	{
		name:       "serve-heavy",
		why:        "POST /v1/run gossip n=128, fresh seed each, 135 KB bodies, LRU evicting: rounds and protocol work are >90% of a request (lat_tail_ms = p95)",
		tailPct:    95,
		clients:    2,
		warmup:     32,
		request:    heavyRequest,
		evicts:     true,
		daemonArgs: []string{"-cache-bytes", "4194304"},
	},
	{
		name:    "batch-lanes",
		why:     "in-process scenario.ExecuteBatch, 64 gossip n=192 lanes per call under mixed link faults: the sliced engine without serve (lat_tail_ms = p80)",
		tailPct: 80,
		clients: 1,
		warmup:  2,
		batch:   lanesBatch,
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// mix is the splitmix64 finalizer: it turns (seed, stream, position)
// into a well-spread 64-bit value, so every derived quantity is a pure
// function of the workload seed.
func mix(seed, stream, i uint64) uint64 {
	x := seed + 0x9e3779b97f4a7c15*(stream+1) + 0xbf58476d1ce4e5b9*i
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Streams of mix, one per derived quantity.
const (
	streamHotSeeds = iota
	streamHotDraw
	streamColdPool
	streamColdFault
	streamHeavy
	streamLanesSeed
	streamLanesFault
	streamLanesSample
)

// seedBase derives the first of a run of consecutive seeds: at most
// 2^62, so adding an op index never wraps, and at least 1, so a fault
// seed is never the 0 that means "derive from the run seed".
func seedBase(seed, stream uint64) uint64 {
	return mix(seed, stream, 0)>>2 + 1
}

// hotKey returns key k of the serve-hot working set: consensus keys
// first, then gossip keys, each with its own seed.
func hotKey(seed uint64, k int) serve.RunRequest {
	s := seedBase(seed, streamHotSeeds) + uint64(k)
	if k < hotConsensusKeys {
		return serve.RunRequest{Scenario: consensusScenario, N: consensusN, T: consensusT, Seed: s}
	}
	return serve.RunRequest{Scenario: gossipScenario, N: gossipN, T: gossipT, Seed: s}
}

func hotRequest(seed uint64, i int) serve.RunRequest {
	keys := hotConsensusKeys + hotGossipKeys
	if i < keys {
		return hotKey(seed, i)
	}
	return hotKey(seed, int(mix(seed, streamHotDraw, uint64(i))%uint64(keys)))
}

func coldRequest(seed uint64, i int) serve.RunRequest {
	return serve.RunRequest{
		Scenario: consensusScenario,
		N:        consensusN,
		T:        consensusT,
		Seed:     mix(seed, streamColdPool, uint64(i%coldSeedPool)),
		Fault: fmt.Sprintf("random-crashes:count=%d,horizon=64,seed=%d",
			consensusT, seedBase(seed, streamColdFault)+uint64(i)),
	}
}

func heavyRequest(seed uint64, i int) serve.RunRequest {
	return serve.RunRequest{
		Scenario: gossipScenario,
		N:        gossipN,
		T:        gossipT,
		Seed:     seedBase(seed, streamHeavy) + uint64(i),
	}
}

// lanesBatch builds ExecuteBatch call i: 64 lanes that share a spec
// seed (gossip lanes of one sliced run share their overlays) and each
// draw a link fault from the workload seed.
func lanesBatch(seed uint64, i int) ([]scenario.Spec, error) {
	sps := make([]scenario.Spec, lanesPerCall)
	for l := range sps {
		sp, err := specOf(serve.RunRequest{
			Scenario: gossipScenario,
			N:        lanesN,
			T:        lanesT,
			Seed:     seedBase(seed, streamLanesSeed) + uint64(i),
			Fault:    laneFault(mix(seed, streamLanesFault, uint64(i*lanesPerCall+l))),
		})
		if err != nil {
			return nil, err
		}
		sps[l] = sp
	}
	return sps, nil
}

// laneFault maps one draw onto the three declarative link-fault
// families the sliced engine replays as lane masks, in the CLI
// spelling of scenario.ParseFault: omission at 1–5%, delivery up to 1
// or 2 rounds late, or a partition window of 1–4 rounds starting
// within the first four.
func laneFault(draw uint64) string {
	kind, p := draw%3, draw/3
	switch kind {
	case 0:
		return fmt.Sprintf("omission:rate=0.0%d,seed=%d", 1+p%5, p>>8+1)
	case 1:
		return fmt.Sprintf("delay:d=%d,seed=%d", 1+p%2, p>>8+1)
	default:
		from := 1 + p%4
		return fmt.Sprintf("partition:from=%d,to=%d", from, from+1+(p>>8)%4)
	}
}

// specOf materializes a request the way the daemon does, so the
// generator can compute the content address the response must carry
// and re-derive sampled responses in-process.
func specOf(req serve.RunRequest) (scenario.Spec, error) {
	d, ok := scenario.Lookup(req.Scenario)
	if !ok {
		return scenario.Spec{}, fmt.Errorf("unknown scenario %q", req.Scenario)
	}
	sp := d.Spec(req.N, req.T, req.Seed)
	if req.Fault != "" {
		f, err := scenario.ParseFault(req.Fault)
		if err != nil {
			return scenario.Spec{}, err
		}
		sp.Fault = f
	}
	return sp, nil
}

// op is one generated request: the exact bytes POSTed, the key the
// response must carry, and the spec for in-process re-derivation.
type op struct {
	index int
	body  []byte
	key   string
	spec  scenario.Spec
}

func (w *workload) op(seed uint64, i int) (op, error) {
	req := w.request(seed, i)
	body, err := json.Marshal(req)
	if err != nil {
		return op{}, err
	}
	sp, err := specOf(req)
	if err != nil {
		return op{}, err
	}
	return op{index: i, body: body, key: sp.Key(), spec: sp}, nil
}
