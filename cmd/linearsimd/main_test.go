package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"lineartime/internal/serve"
)

// startDaemon boots the daemon with extra args on an ephemeral port
// and returns its base URL and exit channel.
func startDaemon(t *testing.T, extra ...string) (string, chan error) {
	t.Helper()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "1"}, extra...)
	go func() { errc <- run(args, ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr, errc
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	return "", nil
}

// sigterm signals the daemon (in-process) and waits for a clean exit.
func sigterm(t *testing.T, errc chan error) {
	t.Helper()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
}

// TestServeAndShutdown boots the daemon on an ephemeral port, checks
// the endpoints answer, and shuts it down with the signal path.
func TestServeAndShutdown(t *testing.T) {
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1"}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}

	body := `{"scenario":"consensus/few-crashes","n":60,"t":10,"seed":1}`
	resp, err = http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Key string `json:"key"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(env.Key, "k1:") {
		t.Fatalf("run: status=%d key=%q", resp.StatusCode, env.Key)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
}

// TestReadyzSplit pins the liveness/readiness split on the live
// daemon: both answer while serving, and /readyz carries the
// not_ready error shape when the gate is down (exercised in the serve
// package; here we pin the wiring).
func TestReadyzSplit(t *testing.T) {
	base, errc := startDaemon(t)
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d, want 200", ep, resp.StatusCode)
		}
	}
	sigterm(t, errc)
}

// TestCampaignSurvivesRestart is the daemon-level resume path: a
// campaign interrupted by SIGTERM checkpoints into the -state file,
// and the next daemon boot restores and finishes it.
func TestCampaignSurvivesRestart(t *testing.T) {
	state := filepath.Join(t.TempDir(), "jobs.json")
	spec := `{"scenario":"consensus/few-crashes","n":12,"t":2,"seed":1,` +
		`"kinds":["omission","delay"],"budget":{"max_sims":16,"max_waves":2,"top_k":3}}`

	base, errc := startDaemon(t, "-state", state)
	resp, err := http.Post(base+"/v1/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("POST campaign: status=%d %+v", resp.StatusCode, st)
	}

	// Kill the daemon mid-campaign; the graceful path must drain the
	// job to a checkpoint and persist the state file.
	sigterm(t, errc)
	if _, err := os.Stat(state); err != nil {
		t.Fatalf("state file not written: %v", err)
	}

	base2, errc2 := startDaemon(t, "-state", state)
	deadline := time.Now().Add(30 * time.Second)
	var final struct {
		Status   string          `json:"status"`
		Error    string          `json:"error"`
		Frontier json.RawMessage `json:"frontier"`
	}
	for {
		resp, err := http.Get(base2 + "/v1/campaigns/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("restored campaign lookup = %d, want 200", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if final.Status != serve.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restored campaign never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if final.Status != serve.JobDone {
		t.Fatalf("restored campaign ended %s (%s), want done", final.Status, final.Error)
	}
	if !bytes.Contains(final.Frontier, []byte("lineartime/frontier/v1")) {
		t.Fatalf("restored campaign has no frontier artifact: %s", final.Frontier)
	}
	sigterm(t, errc2)
}

func TestRunFlagErrors(t *testing.T) {
	if err := run([]string{"-badflag"}, nil); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-addr", "256.0.0.1:99999"}, nil); err == nil {
		t.Fatal("unbindable address accepted")
	}
	if err := run([]string{"-log-format", "xml"}, nil); err == nil {
		t.Fatal("unknown log format accepted")
	}
	if err := run([]string{"-addr", "256.0.0.1:99999", "stray"}, nil); err == nil || !strings.Contains(err.Error(), `unexpected argument "stray"`) {
		t.Fatalf("stray argument: %v", err)
	}
	if err := run([]string{"-pprof-addr", "256.0.0.1:99999"}, nil); err == nil {
		t.Fatal("unbindable pprof address accepted")
	}
}

// TestMetricsEndpoint scrapes the live daemon after one run and checks
// the exposition carries the request and cache families CI asserts on.
func TestMetricsEndpoint(t *testing.T) {
	base, errc := startDaemon(t)
	body := `{"scenario":"consensus/few-crashes","n":24,"t":4,"seed":3}`
	for i := 0; i < 2; i++ {
		resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d status = %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		`lineartime_requests_total{code="2xx",path="/v1/run"} 2`,
		`lineartime_cache_hits_total 1`,
		`lineartime_runs_total{engine="sequential",outcome="ok"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	sigterm(t, errc)
}

// TestAccessLoggerJSON pins the structured log line: one JSON object
// per request with the fields a log pipeline indexes on.
func TestAccessLoggerJSON(t *testing.T) {
	var buf bytes.Buffer
	sink, err := accessLogger("json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	sink(serve.AccessRecord{
		Method:   "POST",
		Path:     "/v1/run",
		Key:      "k1:abc",
		Cache:    "hit",
		Status:   200,
		Duration: 1500 * time.Microsecond,
	})
	var line struct {
		Time       string  `json:"time"`
		Method     string  `json:"method"`
		Path       string  `json:"path"`
		Key        string  `json:"key"`
		Cache      string  `json:"cache"`
		Status     int     `json:"status"`
		DurationMS float64 `json:"duration_ms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("log line is not JSON: %v (%q)", err, buf.String())
	}
	if line.Method != "POST" || line.Path != "/v1/run" || line.Key != "k1:abc" ||
		line.Cache != "hit" || line.Status != 200 || line.DurationMS != 1.5 {
		t.Fatalf("log line = %+v", line)
	}
	if _, err := time.Parse(time.RFC3339Nano, line.Time); err != nil {
		t.Fatalf("log timestamp %q: %v", line.Time, err)
	}

	if sink, err := accessLogger("text", nil); err != nil || sink != nil {
		t.Fatalf("text format: sink non-nil=%v err=%v, want nil/nil", sink != nil, err)
	}
}

// TestPprofOptIn boots the daemon with -pprof-addr and checks the
// profiling mux answers there — and is absent from the service port.
func TestPprofOptIn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pprofAddr := ln.Addr().String()
	ln.Close()

	base, errc := startDaemon(t, "-pprof-addr", pprofAddr)
	resp, err := http.Get("http://" + pprofAddr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("pprof endpoint: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status = %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof reachable on the service address")
	}
	sigterm(t, errc)
}

// TestSilentClientIsDropped pins the listener's header deadline: a
// client that opens a connection and never sends its request headers is
// disconnected, while a well-behaved client on the same server is
// served. Before the timeouts the silent connection was held forever.
func TestSilentClientIsDropped(t *testing.T) {
	if readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("daemon timeouts unset: header %v, idle %v", readHeaderTimeout, idleTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{})
	defer srv.Close()
	hs := newHTTPServer(srv.Handler(), 100*time.Millisecond, time.Second)
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-done
	}()

	silent, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	if _, err := silent.Write([]byte("POST /v1/run HTTP/1.1\r\nHost: x\r\n")); err != nil { // headers never finish
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz beside a silent client = %d", resp.StatusCode)
	}

	// The server closes the silent connection once the header deadline
	// passes: the read ends (408 body then EOF) long before the guard
	// deadline below.
	silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(silent); err != nil {
		t.Fatalf("silent connection still open after %v: %v", time.Since(start), err)
	}
}
