package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stream renders the first n requests of a serve workload as the exact
// bytes the generator would POST.
func stream(t *testing.T, w *workload, seed uint64, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		o, err := w.op(seed, i)
		if err != nil {
			t.Fatalf("%s op %d: %v", w.name, i, err)
		}
		buf.Write(o.body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestRequestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		if w.request == nil {
			continue
		}
		n := w.warmup + 200
		a, b, c := stream(t, w, 7, n), stream(t, w, 7, n), stream(t, w, 8, n)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed generated different request streams", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds generated the same request stream", w.name)
		}
	}
}

func TestBatchSpecsAreAFunctionOfTheSeed(t *testing.T) {
	w, _ := lookupWorkload("batch-lanes")
	keys := func(seed uint64, call int) string {
		sps, err := w.batch(seed, call)
		if err != nil {
			t.Fatal(err)
		}
		if len(sps) != lanesPerCall {
			t.Fatalf("call has %d lanes, want %d", len(sps), lanesPerCall)
		}
		var b strings.Builder
		for _, sp := range sps {
			if sp.Seed != sps[0].Seed || sp.N != lanesN || sp.T != lanesT {
				t.Fatalf("lanes of one call must share seed and shape: %+v", sp)
			}
			b.WriteString(sp.Key())
		}
		return b.String()
	}
	if keys(7, 3) != keys(7, 3) {
		t.Error("same seed generated different batches")
	}
	if keys(7, 3) == keys(8, 3) || keys(7, 3) == keys(7, 4) {
		t.Error("different seed or call generated the same batch")
	}
	// Every fault family must appear, or the workload is not the mix it
	// claims to be.
	seen := map[string]bool{}
	for l := 0; l < 4*lanesPerCall; l++ {
		kind, _, _ := strings.Cut(laneFault(mix(7, streamLanesFault, uint64(l))), ":")
		seen[kind] = true
	}
	for _, kind := range []string{"omission", "delay", "partition"} {
		if !seen[kind] {
			t.Errorf("no %s lane in 4 calls", kind)
		}
	}
}

func TestColdKeysAreDistinct(t *testing.T) {
	const n = 3000
	for _, name := range []string{"serve-cold", "serve-heavy"} {
		w, _ := lookupWorkload(name)
		keys := make(map[string]int, n)
		seeds := make(map[uint64]bool)
		for i := 0; i < n; i++ {
			o, err := w.op(11, i)
			if err != nil {
				t.Fatal(err)
			}
			if j, dup := keys[o.key]; dup {
				t.Fatalf("%s: ops %d and %d share key %s", name, j, i, o.key)
			}
			keys[o.key] = i
			seeds[o.spec.Seed] = true
		}
		if name == "serve-cold" && len(seeds) != coldSeedPool {
			t.Errorf("serve-cold used %d spec seeds, want the pool of %d", len(seeds), coldSeedPool)
		}
		if name == "serve-heavy" && len(seeds) != n {
			t.Errorf("serve-heavy reused a seed: %d distinct of %d", len(seeds), n)
		}
	}
}

func TestHotDrawsStayInTheWorkingSet(t *testing.T) {
	w, _ := lookupWorkload("serve-hot")
	fills := make(map[string]bool, w.warmup)
	for i := 0; i < w.warmup; i++ {
		o, err := w.op(5, i)
		if err != nil {
			t.Fatal(err)
		}
		fills[o.key] = true
	}
	if len(fills) != hotConsensusKeys+hotGossipKeys {
		t.Fatalf("warm-up fills %d distinct keys, want %d", len(fills), hotConsensusKeys+hotGossipKeys)
	}
	drawn := make(map[string]bool)
	for i := w.warmup; i < w.warmup+5000; i++ {
		o, err := w.op(5, i)
		if err != nil {
			t.Fatal(err)
		}
		if !fills[o.key] {
			t.Fatalf("op %d draws a key outside the working set", i)
		}
		drawn[o.key] = true
	}
	if len(drawn) < len(fills)*9/10 {
		t.Errorf("5000 draws touched only %d of %d keys", len(drawn), len(fills))
	}
}

func TestPercentileIsExactNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {10, 1}, {1, 1}, {80, 8},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	// A percentile is always one of the samples, never a bucket edge.
	odd := []float64{0.1603, 0.1611, 0.2482}
	if got := percentile(odd, 99); got != 0.2482 {
		t.Errorf("p99 = %g, want the largest sample", got)
	}
}

func TestMedianAndIQRMatchPythonStatistics(t *testing.T) {
	// statistics.median / statistics.quantiles(v, n=4) of the same lists.
	for _, c := range []struct {
		v           []float64
		median, iqr float64
	}{
		{[]float64{3, 1, 2}, 2, 2},
		{[]float64{1, 2, 3, 4}, 2.5, 2.5},
		{[]float64{10, 20, 30, 40, 50}, 30, 30},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 5.5},
		{[]float64{5, 7}, 6, 3},
		{[]float64{4}, 4, 0},
	} {
		if got := median(c.v); math.Abs(got-c.median) > 1e-12 {
			t.Errorf("median(%v) = %g, want %g", c.v, got, c.median)
		}
		if got := iqr(c.v); math.Abs(got-c.iqr) > 1e-12 {
			t.Errorf("iqr(%v) = %g, want %g", c.v, got, c.iqr)
		}
	}
}

func TestVerdictArithmetic(t *testing.T) {
	for _, c := range []struct {
		better         string
		bound, a, b    float64
		spreadA, sprdB float64
		want           string
	}{
		{"lower", 0.10, 100, 105, 1, 1, verdictSame},
		{"lower", 0.10, 100, 111, 1, 1, verdictWorse},
		{"lower", 0.10, 100, 89, 1, 1, verdictBetter},
		{"higher", 0.10, 100, 89, 1, 1, verdictWorse},
		{"higher", 0.10, 100, 111, 1, 1, verdictBetter},
		{"higher", 0.10, 100, 95, 1, 1, verdictSame},
		// Exactly on the bound is still the same.
		{"lower", 0.25, 100, 125, 0, 0, verdictSame},
		// A spread wider than the bound on either side cannot resolve it.
		{"lower", 0.10, 100, 100, 11, 1, verdictUnresolved},
		{"lower", 0.10, 100, 130, 1, 14, verdictUnresolved},
		{"lower", 0.10, 0, 100, 0, 0, verdictUnresolved},
	} {
		if got := verdict(c.better, c.bound, c.a, c.b, c.spreadA, c.sprdB); got != c.want {
			t.Errorf("verdict(%s, %g, %g→%g, spreads %g/%g) = %s, want %s",
				c.better, c.bound, c.a, c.b, c.spreadA, c.sprdB, got, c.want)
		}
	}
	for _, c := range []struct {
		a, b float64
		want string
	}{{0, 0, verdictSame}, {0, 0.0005, verdictSame}, {0, 0.002, verdictWorse}, {0.01, 0, verdictBetter}} {
		if got := verdictErrorRate(c.a, c.b); got != c.want {
			t.Errorf("verdictErrorRate(%g, %g) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

// inRepoRoot runs f with the repository root as the working directory,
// where BENCHMARK.json lives.
func inRepoRoot(t *testing.T, f func()) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	f()
}

func TestContractMatches(t *testing.T) {
	var c benchmarkContract
	inRepoRoot(t, func() {
		if err := readJSON("BENCHMARK.json", &c); err != nil {
			t.Fatal(err)
		}
	})
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's default is %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", c.Paths)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %s: %s", i, c.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || !strings.Contains(w.why, fmt.Sprintf("lat_tail_ms = p%g", w.tailPct)) {
			t.Errorf("%s: why must fit 200 characters and state the tail percentile: %q", w.name, w.why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the benchmark", len(got), kind, len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd)
	same("per_layer", c.PerLayer, perLayer)
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{workload: "w"}
	tr.spans = []span{
		{Op: 0, Name: "a", Parent: rootSpan, StartNS: 10, EndNS: 40},
		{Op: 0, Name: "b", Parent: rootSpan, StartNS: 50, EndNS: 60},
		{Op: 0, Name: rootSpan, StartNS: 0, EndNS: 100},
		{Op: 1, Name: "a", Parent: rootSpan, StartNS: 100, EndNS: 105},
		{Op: 1, Name: rootSpan, StartNS: 100, EndNS: 110},
	}
	self := tr.selfTimes()
	if got := self[rootSpan]; len(got) != 2 || got[0] != 60 || got[1] != 5 {
		t.Errorf("root self times %v, want [60 5]", got)
	}
	if got := self["a"]; len(got) != 2 || got[0] != 30 || got[1] != 5 {
		t.Errorf("a self times %v, want [30 5]", got)
	}
}

func TestScrapeSumsFamilies(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "# HELP x y\n# TYPE x counter\n"+
			"lineartime_cache_hits_total 41\n"+
			"lineartime_runs_total{engine=\"sequential\",outcome=\"ok\"} 5\n"+
			"lineartime_runs_total{engine=\"sliced\",outcome=\"ok\"} 2\n"+
			"lineartime_cache_capacity_bytes 6.7108864e+07\n")
	}))
	defer srv.Close()
	sums, _, err := scrape(srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if sums["lineartime_cache_hits_total"] != 41 || sums["lineartime_runs_total"] != 7 || sums["lineartime_cache_capacity_bytes"] != 64<<20 {
		t.Errorf("scrape sums = %v", sums)
	}
	if _, ok := sums["lineartime_absent_total"]; ok {
		t.Error("an absent family must stay absent")
	}
}

func TestGuaranteeCheck(t *testing.T) {
	parse := func(s string) *runEnvelope {
		var e runEnvelope
		if err := json.Unmarshal([]byte(s), &e); err != nil {
			t.Fatal(err)
		}
		return &e
	}
	ok := parse(`{"key":"k","report":{"metrics":{"rounds":9},"crashed":[1],"consensus":{"decisions":[1,-1,1],"agreement":true,"validity":true}}}`)
	if err := ok.checkGuarantee(); err != nil {
		t.Errorf("a correct report failed the check: %v", err)
	}
	for name, body := range map[string]string{
		"undecided survivor": `{"report":{"metrics":{"rounds":9},"crashed":[],"consensus":{"decisions":[1,-1,1],"agreement":true,"validity":true}}}`,
		"no agreement":       `{"report":{"metrics":{"rounds":9},"consensus":{"decisions":[1,0],"agreement":false,"validity":true}}}`,
		"no rounds":          `{"report":{"metrics":{"rounds":0},"consensus":{"decisions":[1,1],"agreement":true,"validity":true}}}`,
		"no outcome":         `{"report":{"metrics":{"rounds":9}}}`,
	} {
		if parse(body).checkGuarantee() == nil {
			t.Errorf("%s passed the guarantee check", name)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, comparable bool, scale float64) string {
		f := resultFile{Schema: resultSchema, Comparable: comparable}
		for _, w := range workloads {
			res := &workloadResult{Name: w.name, EndToEnd: map[string]e2eValue{}}
			for _, d := range endToEnd {
				v := 100.0
				if d.Name == "lat_p50_ms" {
					v *= scale
				}
				res.EndToEnd[d.Name] = e2eValue{Value: v, Unit: d.Unit, IQR: 1}
			}
			f.Workloads = append(f.Workloads, res)
		}
		path, err := filepath.Abs(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := writeResult(&f, path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("a.json", true, 1), write("b.json", true, 1.05), write("c.json", true, 1.5)
	quick := write("q.json", false, 1)
	inRepoRoot(t, func() {
		var out bytes.Buffer
		if err := compareFiles(base, same, &out); err != nil {
			t.Errorf("5%% slower p50 under a 10%% bound: %v\n%s", err, out.String())
		}
		if n := strings.Count(out.String(), verdictSame); n != len(workloads)*(len(endToEnd)+1) {
			t.Errorf("%d same verdicts, want one per (metric, workload):\n%s", n, out.String())
		}
		out.Reset()
		if err := compareFiles(base, slow, &out); !errors.Is(err, errWorse) {
			t.Errorf("50%% slower p50 must fail the comparison, got %v", err)
		}
		if n := strings.Count(out.String(), verdictWorse); n != len(workloads) {
			t.Errorf("%d worse verdicts, want one per workload:\n%s", n, out.String())
		}
		if err := compareFiles(base, quick, io.Discard); err == nil {
			t.Error("a -quick result must not be comparable")
		}
	})
}
