package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updatePerPart = flag.Bool("update", false, "rewrite testdata/perpart_golden.json")

// perPartEntry is one registry row's run at one size: the engine's
// per-part message breakdown and a fingerprint of the whole report.
type perPartEntry struct {
	PerPart      map[string]int64 `json:"per_part"`
	ReportSHA256 string           `json:"report_sha256,omitempty"`
	Err          string           `json:"error,omitempty"`
}

// perPartSizes are the golden's sizes: the parity-suite size, and one at
// which the little overlay and H degenerate to K_n.
var perPartSizes = [][2]int{{60, 10}, {12, 2}}

func perPartRuns(t *testing.T) map[string]perPartEntry {
	t.Helper()
	got := make(map[string]perPartEntry)
	for _, d := range All() {
		for _, size := range perPartSizes {
			name := fmt.Sprintf("%s@n=%d,t=%d", d.Name, size[0], size[1])
			rep, err := Run(d.Spec(size[0], size[1], 1))
			if err != nil {
				got[name] = perPartEntry{Err: err.Error()}
				continue
			}
			body, err := json.Marshal(rep)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sum := sha256.Sum256(body)
			got[name] = perPartEntry{PerPart: rep.Metrics.PerPart, ReportSHA256: hex.EncodeToString(sum[:])}
		}
	}
	return got
}

// TestPerPartGolden pins, for every registry row at two sizes, the exact
// Metrics.PerPart map — which part of the paper's schedule each round's
// traffic is booked to — and the SHA-256 of the report JSON. Regenerate
// intentionally with:
//
//	go test -run TestPerPartGolden ./internal/scenario/ -update
func TestPerPartGolden(t *testing.T) {
	path := filepath.Join("testdata", "perpart_golden.json")
	got := perPartRuns(t)
	if *updatePerPart {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want map[string]perPartEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d entries, runs produced %d", len(want), len(got))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || !reflect.DeepEqual(g, w) {
			t.Errorf("%s drifted:\n got %+v\nwant %+v", name, g, w)
		}
	}
}
