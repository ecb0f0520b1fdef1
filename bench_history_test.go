package lineartime

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// historyLine is one line of BENCH_history.jsonl: one workload measured
// in alternating parent/change pairs of `go run ./bench` for one PR.
// Base is the parent commit the pairs ran against — known before the
// PR's own commit exists, whose parent it is. Pointers tell a field
// that is present but null (a back-filled line whose CHANGES.md entry
// did not record it) from one that is missing.
type historyLine struct {
	PR       *int     `json:"pr"`
	Base     *string  `json:"base"`
	Workload *string  `json:"workload"`
	Claim    *string  `json:"claim"`
	Pairs    *int     `json:"pairs"`
	Seeds    []uint64 `json:"seeds"`
	Machine  *struct {
		Go         *string `json:"go"`
		NumCPU     *int    `json:"num_cpu"`
		GOMAXPROCS *int    `json:"gomaxprocs"`
		Kernel     *string `json:"kernel"`
		CPUModel   *string `json:"cpu_model"`
	} `json:"machine"`
	Metrics    map[string]map[string]*float64 `json:"metrics"`
	Backfilled *bool                          `json:"backfilled"`
}

// TestBenchHistoryLines keeps BENCH_history.jsonl a trajectory the next
// reader can compare: every line parses and names its PR, base commit,
// workload (one BENCHMARK.json declares), pair count, seeds, machine
// block and the six end-to-end metrics, each with the parent's median,
// the change's median and the parent's IQR, and says whether it was
// back-filled from CHANGES.md. Only a back-filled line may leave a
// value null; a claimed metric must be one of the six.
func TestBenchHistoryLines(t *testing.T) {
	var contract struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
		} `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	var workloads, metrics []string
	for _, w := range contract.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range contract.EndToEnd {
		metrics = append(metrics, m.Name)
	}

	data, err := os.ReadFile("BENCH_history.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	lines, measured := 0, 0
	for no := 1; sc.Scan(); no++ {
		var h historyLine
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&h); err != nil {
			t.Fatalf("line %d: %v", no, err)
		}
		lines++
		switch {
		case h.PR == nil || h.Base == nil || *h.Base == "" || h.Backfilled == nil:
			t.Fatalf("line %d: needs pr, base and backfilled", no)
		case h.Workload == nil || !slices.Contains(workloads, *h.Workload):
			t.Fatalf("line %d: workload %v is not one BENCHMARK.json declares", no, h.Workload)
		case h.Pairs == nil || *h.Pairs < 1:
			t.Fatalf("line %d: needs a pair count", no)
		case h.Machine == nil || h.Machine.NumCPU == nil:
			t.Fatalf("line %d: needs a machine block with num_cpu", no)
		case h.Claim != nil && !slices.Contains(metrics, *h.Claim):
			t.Fatalf("line %d: claims %q, not an end-to-end metric", no, *h.Claim)
		}
		if len(h.Metrics) != len(metrics) {
			t.Fatalf("line %d: %d metrics, want the %d end-to-end ones", no, len(h.Metrics), len(metrics))
		}
		for _, name := range metrics {
			m, ok := h.Metrics[name]
			if !ok {
				t.Fatalf("line %d: no %s", no, name)
			}
			for _, field := range []string{"parent", "change", "parent_iqr"} {
				v, ok := m[field]
				if !ok || len(m) != 3 {
					t.Fatalf("line %d: %s needs exactly parent, change and parent_iqr", no, name)
				}
				if v == nil && !*h.Backfilled {
					t.Fatalf("line %d: %s.%s is null on a measured line", no, name, field)
				}
			}
		}
		if !*h.Backfilled {
			measured++
			mc := h.Machine
			if mc.Go == nil || mc.GOMAXPROCS == nil || mc.Kernel == nil || mc.CPUModel == nil {
				t.Fatalf("line %d: a measured line names go, num_cpu, gomaxprocs, kernel and the CPU model", no)
			}
			if len(h.Seeds) != *h.Pairs {
				t.Fatalf("line %d: %d seeds for %d pairs", no, len(h.Seeds), *h.Pairs)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 || measured == 0 {
		t.Fatalf("%d lines, %d measured: the history needs at least one measured line", lines, measured)
	}
}
