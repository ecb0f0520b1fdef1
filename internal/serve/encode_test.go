package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"lineartime/internal/obs"
	"lineartime/internal/rng"
	"lineartime/internal/scenario"
)

// sameAsEncodingJSON holds one response to the contract of
// EncodeRunResponseTrace: the bytes json.Marshal gives the envelope
// struct, which decode back into a response that encodes to them again.
func sameAsEncodingJSON(t *testing.T, tag, key string, rep *scenario.Report, tr *obs.Trace) {
	t.Helper()
	want, err := json.Marshal(RunResponse{Key: key, Report: rep, Trace: tr})
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	got, err := EncodeRunResponseTrace(key, rep, tr)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoder differs from encoding/json\n got %s\nwant %s", tag, got, want)
	}
	if tr == nil {
		if plain, err := EncodeRunResponse(key, rep); err != nil || !bytes.Equal(plain, want) {
			t.Fatalf("%s: EncodeRunResponse differs from a nil trace (err %v)", tag, err)
		}
	}
	var back RunResponse
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	// An empty list an omitempty drops comes back nil, so the round trip
	// is judged on the encoding.
	if again, err := json.Marshal(back); err != nil || !bytes.Equal(again, want) {
		t.Fatalf("%s: response did not survive a round trip (err %v)\n got %s\nwant %s", tag, err, again, want)
	}
}

// TestEncodeRunResponseMatchesEncodingJSON pins the hand-assembled
// envelope byte-for-byte against json.Marshal(RunResponse{…}): every
// registry row; gossip runs with crashed nodes (null views) and, under
// omission, incomplete ones whose survivors decided several distinct
// views; a trace attached; and hand-built reports no run produces — no
// report at all, a view keyed by something that is no node name (the
// reflection fallback inside the section), a gossip section beside an
// outcome declared after it, and a key and a scenario name that need
// escaping.
func TestEncodeRunResponseMatchesEncodingJSON(t *testing.T) {
	distinct := 0
	for _, d := range scenario.All() {
		n, tt := 50, 8
		if d.Problem == scenario.ByzantineConsensus {
			tt = 4
		}
		sp := d.Spec(n, tt, 0xe2c0de)
		spans := obs.NewSpanTracer()
		sp.Tracer = spans
		rep, err := scenario.Run(sp)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		sameAsEncodingJSON(t, d.Name, sp.Key(), rep, nil)
		sameAsEncodingJSON(t, d.Name+" traced", sp.Key(), rep, spans.Trace())
	}
	for _, fault := range []string{"random-crashes:count=8,horizon=40,seed=3", "omission:rate=0.6,seed=5"} {
		sp := scenario.MustLookup("gossip/expander").Spec(50, 8, 0xe2c0de)
		f, err := scenario.ParseFault(fault)
		if err != nil {
			t.Fatal(err)
		}
		sp.Fault = f
		rep, err := scenario.Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		sameAsEncodingJSON(t, fault, sp.Key(), rep, nil)
		seen := map[uintptr]bool{}
		for _, view := range rep.Gossip.Extant {
			if view == nil {
				seen[0] = true
			} else {
				seen[reflect.ValueOf(view).Pointer()] = true
			}
		}
		distinct = max(distinct, len(seen))
	}
	if distinct < 4 {
		t.Fatalf("the faulted gossip runs decoded into %d distinct views, want crashed nodes and several survivors' views", distinct)
	}

	shared := map[int]uint64{0: 0, 1: ^uint64(0), 2: 7}
	odd := map[int]uint64{1: 5, -3: 9, 400: 1}
	gossip := &scenario.GossipOutcome{Extant: []map[int]uint64{shared, nil, odd, shared, {}, odd}}
	for tag, rep := range map[string]*scenario.Report{
		"no report":        nil,
		"non-node key":     {Scenario: "hand/built", N: 6, Gossip: gossip},
		"two outcomes":     {N: 6, Gossip: gossip, Consensus: &scenario.ConsensusOutcome{Decisions: []int{1}}, Majority: &scenario.MajorityOutcome{Ballots: 3}},
		"escaped strings":  {Scenario: "a<b>&\"c\"\u2028", Crashed: []int{1}, Gossip: gossip},
		"nil extant":       {Gossip: &scenario.GossipOutcome{Complete: true}},
		"per-part metrics": {Metrics: scenario.Metrics{PerPart: map[string]int64{"gossip": 0, "}": 1}}, Gossip: gossip},
	} {
		if rep != nil {
			rep.Problem = scenario.Gossip // the zero Problem does not decode
		}
		sameAsEncodingJSON(t, tag, "k<\"&\u2029", rep, nil)
		sameAsEncodingJSON(t, tag+" traced", "key", rep, &obs.Trace{Engine: "sequential", Spans: []obs.Span{{Name: "rounds"}}})
	}
}

// FuzzRunResponseEncoding holds the same equality over generated gossip
// reports: up to 40 nodes, each crashed, sharing an earlier node's view
// or deciding one of its own, rumors drawn from a range that includes 0
// and 2⁶⁴−1.
func FuzzRunResponseEncoding(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(3), uint64(0b1010))
	f.Add(uint64(2), uint8(40), uint8(0), uint64(0))
	f.Add(uint64(3), uint8(0), uint8(9), ^uint64(0))
	f.Fuzz(func(t *testing.T, seed uint64, nodes, sharing uint8, crashed uint64) {
		n := int(nodes % 41)
		r := rng.New(seed)
		rumor := func() uint64 {
			switch r.Intn(4) {
			case 0:
				return 0
			case 1:
				return ^uint64(0)
			}
			return r.Uint64() >> uint(r.Intn(64))
		}
		out := &scenario.GossipOutcome{Extant: make([]map[int]uint64, n), Complete: seed%2 == 0}
		rep := &scenario.Report{Scenario: "gossip/expander", Problem: scenario.Gossip, N: n, Gossip: out}
		for i := range out.Extant {
			switch {
			case crashed>>uint(i)&1 == 1:
				rep.Crashed = append(rep.Crashed, i)
			case i > 0 && r.Intn(10) < int(sharing%11):
				out.Extant[i] = out.Extant[r.Intn(i)]
			default:
				view := make(map[int]uint64)
				for j := 0; j < n; j++ {
					if r.Intn(4) > 0 {
						view[j] = rumor()
					}
				}
				out.Extant[i] = view
			}
		}
		sameAsEncodingJSON(t, fmt.Sprintf("seed=%d n=%d", seed, n), fmt.Sprintf("%x", seed), rep, nil)
	})
}
