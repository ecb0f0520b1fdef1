package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"lineartime/internal/serve"
)

func TestRunAllProblems(t *testing.T) {
	cases := [][]string{
		{"-problem", "consensus", "-n", "60", "-t", "12", "-crashes", "12"},
		{"-problem", "consensus", "-algo", "many-crashes", "-n", "60", "-t", "40"},
		{"-problem", "consensus", "-algo", "flooding", "-n", "40", "-t", "8"},
		{"-problem", "consensus", "-algo", "single-port", "-n", "40", "-t", "8"},
		{"-problem", "consensus", "-baseline", "-n", "40", "-t", "8"},
		{"-problem", "consensus", "-ones", "10", "-n", "40", "-t", "8"},
		{"-problem", "gossip", "-n", "50", "-t", "10"},
		{"-problem", "gossip", "-baseline", "-n", "50", "-t", "10"},
		{"-problem", "checkpoint", "-n", "50", "-t", "10"},
		{"-problem", "checkpoint", "-baseline", "-n", "50", "-t", "10"},
		{"-problem", "byzantine", "-n", "40", "-t", "4", "-byz", "equivocate", "-byzcount", "4"},
		{"-problem", "byzantine", "-n", "40", "-t", "4", "-byz", "spam", "-byzcount", "2"},
		{"-problem", "byzantine", "-n", "30", "-t", "3", "-baseline"},
		{"-problem", "byzantine", "-n", "30", "-t", "3", "-byzcount", "9"}, // clamped to t
		// The -fault flag: any registered fault model from the CLI.
		{"-problem", "consensus", "-n", "60", "-t", "10", "-fault", "omission:rate=0.05"},
		{"-problem", "consensus", "-n", "60", "-t", "10", "-fault", "delay:d=2"},
		{"-problem", "consensus", "-algo", "flooding", "-n", "40", "-t", "8", "-fault", "partition:from=1,to=4"},
		{"-problem", "consensus", "-n", "60", "-t", "10", "-fault", "random-crashes:count=10,horizon=40"},
		{"-problem", "consensus", "-n", "60", "-t", "10", "-fault", "crash-schedule:events=1@0;2@1/0"},
		{"-problem", "gossip", "-n", "50", "-t", "10", "-fault", "delay:d=1"},
		{"-problem", "checkpoint", "-n", "50", "-t", "10", "-fault", "partition:from=1,to=3,cut=25"},
		// -fault overrides -crashes.
		{"-problem", "consensus", "-n", "60", "-t", "10", "-crashes", "5", "-fault", "none"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if err := run(args); err != nil {
				t.Fatalf("run(%v): %v", args, err)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-problem", "nonsense"},
		{"-problem", "consensus", "-algo", "nonsense"},
		{"-problem", "byzantine", "-byz", "nonsense"},
		{"-problem", "consensus", "-n", "10", "-t", "9"}, // t > n/5 for few-crashes
		{"-badflag"},
		{"-problem", "consensus", "-n", "60", "-t", "10", "-fault", "gremlins"},
		{"-problem", "consensus", "-n", "60", "-t", "10", "-fault", "omission:rate=1.5"},
		{"-problem", "consensus", "-n", "60", "-t", "10", "-fault", "partition:from=4,to=4"},
		{"-problem", "consensus", "-n", "60", "-t", "10", "-fault", "delay:d=0"},
		{"-problem", "byzantine", "-n", "40", "-t", "4", "-fault", "omission:rate=0.1"},
		{"-problem", "consensus", "-n", "40", "-t", "8", "-seeds", "0"},
		{"-problem", "consensus", "-n", "40", "-t", "8", "-seeds", "4", "-json"},
		{"-problem", "consensus", "-n", "40", "-t", "8", "-seeds", "4", "-trace"},
		// A stray argument ends flag parsing, so -crashes would be dropped.
		{"-n", "100", "-trace", "out.json", "-crashes", "5"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if err := run(args); err == nil {
				t.Fatalf("run(%v) succeeded, want error", args)
			}
		})
	}
}

// TestRunSeedsSummary exercises the -seeds sweep for every problem:
// the sliceable flooding comparator (which rides the bit-sliced
// engine), the expander scenarios (scalar fallback: their topologies
// are seed-derived), and byzantine (adaptive, always scalar).
func TestRunSeedsSummary(t *testing.T) {
	cases := [][]string{
		{"-problem", "consensus", "-algo", "flooding", "-n", "40", "-t", "8", "-seeds", "64", "-fault", "random-crashes:count=8,horizon=10"},
		{"-problem", "consensus", "-n", "60", "-t", "12", "-crashes", "12", "-seeds", "3"},
		{"-problem", "gossip", "-n", "50", "-t", "10", "-seeds", "3", "-fault", "delay:d=1"},
		{"-problem", "checkpoint", "-n", "50", "-t", "10", "-seeds", "3"},
		{"-problem", "byzantine", "-n", "40", "-t", "4", "-byz", "equivocate", "-byzcount", "4", "-seeds", "3"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if err := run(args); err != nil {
				t.Fatalf("run(%v): %v", args, err)
			}
		})
	}
}

func TestScenarioForAlgorithm(t *testing.T) {
	for _, name := range []string{"few-crashes", "many-crashes", "flooding", "single-port"} {
		if _, err := scenarioForAlgorithm(name, false); err != nil {
			t.Errorf("scenarioForAlgorithm(%q): %v", name, err)
		}
	}
	if d, err := scenarioForAlgorithm("anything", true); err != nil || string(d.Algorithm) != "flooding" {
		t.Errorf("baseline override broken: %v %v", d.Algorithm, err)
	}
}

func TestListScenarios(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and
// returns what it wrote.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		var buf bytes.Buffer
		buf.ReadFrom(r)
		done <- buf.Bytes()
	}()
	fnErr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if fnErr != nil {
		t.Fatalf("run: %v", fnErr)
	}
	return out
}

// TestJSONOutput checks -json emits the daemon's run envelope for
// every problem: one decodable {key, report} line, with the key a
// spec fingerprint and the report section matching the problem.
func TestJSONOutput(t *testing.T) {
	cases := []struct {
		args    []string
		problem string
	}{
		{[]string{"-problem", "consensus", "-n", "60", "-t", "10", "-json"}, "consensus"},
		{[]string{"-problem", "gossip", "-n", "50", "-t", "10", "-json"}, "gossip"},
		{[]string{"-problem", "checkpoint", "-n", "50", "-t", "10", "-json"}, "checkpoint"},
		{[]string{"-problem", "byzantine", "-n", "40", "-t", "4", "-byzcount", "4", "-json"}, "byzantine"},
	}
	for _, tc := range cases {
		t.Run(tc.problem, func(t *testing.T) {
			out := captureStdout(t, func() error { return run(tc.args) })
			var env serve.RunResponse
			if err := json.Unmarshal(out, &env); err != nil {
				t.Fatalf("output is not one JSON envelope: %v\n%s", err, out)
			}
			if !strings.HasPrefix(env.Key, "k1:") {
				t.Fatalf("key = %q", env.Key)
			}
			if env.Report == nil || env.Report.Problem.String() != tc.problem {
				t.Fatalf("report problem = %+v, want %s", env.Report, tc.problem)
			}
		})
	}
}

// postToHandler posts body to the serving layer's /v1/run in process
// and returns the response body.
func postToHandler(t *testing.T, s *serve.Server, body string) string {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/run", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("daemon run: status %d body %s", rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// TestJSONOutputMatchesDaemonEncoding pins that linearsim -json and
// the serving layer produce the same bytes for the same spec — one
// format for scripted consumers.
func TestJSONOutputMatchesDaemonEncoding(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"-problem", "consensus", "-n", "60", "-t", "10", "-seed", "1", "-json"})
	})
	s := serve.New(serve.Config{Workers: 1})
	defer s.Close()
	rec := postToHandler(t, s, `{"scenario":"consensus/few-crashes","n":60,"t":10,"seed":1}`)
	if want := strings.TrimSuffix(string(out), "\n"); rec != want {
		t.Fatalf("encodings diverged:\n cli    %s\n daemon %s", want, rec)
	}
}

// TestJSONTrace pins the lifted -trace/-json exclusion: together they
// emit the daemon envelope with the stage transcript under the "trace"
// key — and plain -json still omits the key entirely, keeping its
// bytes daemon-identical.
func TestJSONTrace(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"-problem", "gossip", "-n", "50", "-t", "10", "-trace", "-json"})
	})
	var env struct {
		Key   string `json:"key"`
		Trace *struct {
			Engine  string `json:"engine"`
			Outcome string `json:"outcome"`
			Rounds  int    `json:"rounds"`
			Ran     int    `json:"rounds_executed"`
			Spans   []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(out, &env); err != nil {
		t.Fatalf("traced envelope is not JSON: %v\n%s", err, out)
	}
	if env.Trace == nil {
		t.Fatalf("traced envelope has no trace key: %s", out)
	}
	if env.Trace.Engine != "sequential" || env.Trace.Outcome != "ok" || env.Trace.Rounds <= 0 {
		t.Fatalf("trace = %+v", env.Trace)
	}
	// -trace installs an Observer, and an observed run repeats no
	// steady round; it still jumps over gossip's silent inquiry and
	// response rounds.
	if env.Trace.Ran <= 0 || env.Trace.Ran >= env.Trace.Rounds {
		t.Fatalf("gossip trace executed %d of %d rounds", env.Trace.Ran, env.Trace.Rounds)
	}
	// One span per stage, each under its own name: the scenario layer's
	// materialization and the engine's arena setup no longer share one.
	names := make(map[string]int)
	for _, s := range env.Trace.Spans {
		names[s.Name]++
	}
	for _, want := range []string{"materialize", "setup", "rounds", "decode"} {
		if names[want] != 1 {
			t.Fatalf("trace has %d %q spans, want 1: %+v", names[want], want, env.Trace.Spans)
		}
	}

	plain := captureStdout(t, func() error {
		return run([]string{"-problem", "gossip", "-n", "50", "-t", "10", "-json"})
	})
	if bytes.Contains(plain, []byte(`"trace"`)) {
		t.Fatalf("plain -json grew a trace key: %s", plain)
	}
}

// TestRunTraced checks -trace works for every registry problem, not
// just the hand-built few-crashes stack it used to be limited to, and
// that the transcript is read over the run's rounds: the message total
// and the traffic profile name the rounds the stage line reports, the
// profile sums to the total, the crashes come in round order and the
// stage column fits every stage name.
func TestRunTraced(t *testing.T) {
	cases := [][]string{
		{"-trace", "-n", "50", "-t", "10", "-crashes", "10"},
		{"-problem", "gossip", "-trace", "-n", "50", "-t", "10"},
		{"-problem", "checkpoint", "-trace", "-n", "50", "-t", "10"},
		{"-problem", "byzantine", "-trace", "-n", "40", "-t", "4", "-byzcount", "4"},
		// Traffic ends at round 109 of 128, and the crashed nodes'
		// ids have one and two digits.
		{"-trace", "-n", "100", "-t", "20", "-crashes", "12"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			out := string(captureStdout(t, func() error { return run(args) }))
			for _, want := range []string{"stages (engine=sequential", "rounds executed (", " quiet, ", " repeated)", "materialize", "setup", "rounds"} {
				if !strings.Contains(out, want) {
					t.Fatalf("trace output missing %q:\n%s", want, out)
				}
			}
			profile := checkTranscript(t, out)
			if args[len(args)-1] == "12" && profile[len(profile)-1] != 0 {
				t.Fatalf("the last tenth of the run has no traffic, yet its bucket reads %d:\n%s", profile[len(profile)-1], out)
			}
		})
	}
	if err := run([]string{"-trace", "-n", "10", "-t", "9"}); err == nil {
		t.Fatal("invalid topology accepted in trace mode")
	}
}

// checkTranscript checks one -trace transcript and returns its traffic
// profile.
func checkTranscript(t *testing.T, out string) []int64 {
	t.Helper()
	// The transcript follows the text report, which has lines of its own
	// that start with "messages:".
	lines := strings.Split(out[strings.Index(out, "\nstages ("):], "\n")
	find := func(prefix string) int {
		for i, l := range lines {
			if strings.HasPrefix(l, prefix) {
				return i
			}
		}
		t.Fatalf("no line starts with %q:\n%s", prefix, out)
		return 0
	}
	var executed, rounds int
	at := find("stages (")
	if _, err := fmt.Sscanf(lines[at][strings.Index(lines[at], ", ")+2:], "%d of %d rounds", &executed, &rounds); err != nil {
		t.Fatalf("stage line %q: %v", lines[at], err)
	}
	for _, l := range lines[at+2 : at+1+strings.Count(out, " ms\n")] {
		if len(l) != len(lines[at+1]) {
			t.Fatalf("stage column misaligned:\n%s\n%s", lines[at+1], l)
		}
	}
	var msgs int64
	var over, buckets int
	if _, err := fmt.Sscanf(lines[find("messages: ")], "messages: %d over %d rounds", &msgs, &over); err != nil || over != rounds {
		t.Fatalf("transcript total %q, want it over the run's %d rounds (%v)", lines[find("messages: ")], rounds, err)
	}
	at = find("traffic profile (")
	if _, err := fmt.Sscanf(lines[at], "traffic profile (%d buckets over %d rounds):", &buckets, &over); err != nil || over != rounds {
		t.Fatalf("profile header %q, want it over the run's %d rounds (%v)", lines[at], rounds, err)
	}
	var profile []int64
	var sum int64
	for _, f := range strings.Fields(lines[at+1]) {
		c, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		profile = append(profile, c)
		sum += c
	}
	if len(profile) != buckets || sum != msgs {
		t.Fatalf("profile %v: want %d buckets summing to %d", profile, buckets, msgs)
	}
	crashes := lines[find("crashes: ")]
	if open := strings.Index(crashes, "("); open >= 0 {
		last := 0
		for _, ev := range strings.Split(strings.Trim(crashes[open:], "()"), ", ") {
			var node, round int
			if _, err := fmt.Sscanf(ev, "%d@r%d", &node, &round); err != nil || round < last {
				t.Fatalf("crash timeline %q is not in round order at %q (%v)", crashes, ev, err)
			}
			last = round
		}
	}
	return profile
}
