package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"lineartime/internal/rng"
)

// TestGossipOutcomeMarshalMatchesReflection pins GossipOutcome's
// MarshalJSON byte-for-byte against the reflection encoder (the same
// struct without the method) on randomized outcomes — crashed (nil),
// empty, partial, full and shared views, n either side of a word boundary,
// keys that are not node names — bare and inside a Report, compact and
// indented; and the bytes decode back to the value they came from.
func TestGossipOutcomeMarshalMatchesReflection(t *testing.T) {
	type plain GossipOutcome // same fields and tags, no MarshalJSON
	r := rng.New(0x6055)
	outcomes := []*GossipOutcome{{}, {Extant: []map[int]uint64{}, Complete: true}}
	for _, n := range []int{1, 2, 9, 10, 11, 63, 64, 65, 100, 101, 128, 193} {
		for trial := 0; trial < 4; trial++ {
			out := &GossipOutcome{Extant: make([]map[int]uint64, n), Complete: r.Intn(2) == 0}
			for i := range out.Extant {
				switch r.Intn(6) {
				case 0: // crashed
				case 1:
					out.Extant[i] = map[int]uint64{}
				case 5: // an earlier node's view, the very map
					out.Extant[i] = out.Extant[r.Intn(i+1)]
				case 2: // partial, now and then with a key that is no node name
					view := make(map[int]uint64)
					for j := 0; j < n; j++ {
						if r.Intn(3) == 0 {
							view[j] = r.Uint64() >> uint(r.Intn(64))
						}
					}
					if r.Intn(4) == 0 {
						view[n+r.Intn(1000)] = r.Uint64()
						view[-1-r.Intn(50)] = 7
					}
					out.Extant[i] = view
				default: // full
					view := make(map[int]uint64, n)
					for j := 0; j < n; j++ {
						view[j] = r.Uint64() >> uint(r.Intn(64))
					}
					out.Extant[i] = view
				}
			}
			outcomes = append(outcomes, out)
		}
	}
	for _, out := range outcomes {
		n := len(out.Extant)
		want, err := json.Marshal((*plain)(out))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: MarshalJSON differs from the reflection encoder\n got %s\nwant %s", n, got, want)
		}
		var back GossipOutcome
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(&back, out) {
			t.Fatalf("n=%d: outcome did not survive a round trip", n)
		}

		type plainReport struct {
			N      int    `json:"n"`
			Gossip *plain `json:"gossip,omitempty"`
		}
		type report struct {
			N      int            `json:"n"`
			Gossip *GossipOutcome `json:"gossip,omitempty"`
		}
		want, _ = json.MarshalIndent(plainReport{N: n, Gossip: (*plain)(out)}, "", "  ")
		got, _ = json.MarshalIndent(report{N: n, Gossip: out}, "", "  ")
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: indented report differs from the reflection encoder", n)
		}
	}
}
