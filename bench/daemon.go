package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark writes: the daemon binary,
// per-workload result files of a full run. It is relative to the
// checkout root the benchmark is run from, and git-ignored.
const buildDir = ".bench_build"

// clockTicksPerSecond is the unit of the CPU fields of
// /proc/<pid>/stat. USER_HZ is 100 on every Linux ABI Go targets.
const clockTicksPerSecond = 100

// buildDaemon compiles cmd/linearsimd from the checkout's source into
// buildDir and returns the binary path and the build's wall time,
// which is reported on its own and excluded from setup_s.
func buildDaemon() (string, time.Duration, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", 0, err
	}
	bin := filepath.Join(buildDir, "linearsimd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/linearsimd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/linearsimd: %w", err)
	}
	return bin, time.Since(start), nil
}

// daemon is one running linearsimd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	// started is the instant just before exec: setup_s counts from here.
	started time.Time
	exited  chan error
}

// startDaemon executes the daemon binary with its default flags (plus
// extra) on a free loopback port and waits until /readyz answers 200.
func startDaemon(bin string, client *http.Client, extra ...string) (*daemon, error) {
	// Reserve a free port by binding and releasing it. The daemon could
	// print an ephemeral port itself, but parsing its log line would tie
	// the benchmark to the log format.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd := exec.Command(bin, append([]string{"-addr", addr}, extra...)...)
	d := &daemon{cmd: cmd, base: "http://" + addr, started: time.Now(), exited: make(chan error, 1)}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.exited <- cmd.Wait() }()

	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exited:
			return nil, fmt.Errorf("daemon exited before it was ready: %v", err)
		default:
		}
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("daemon not ready on %s after 20s", addr)
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks the daemon to shut down gracefully and waits until the
// process has ended, killing it if the drain takes too long.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// procCPUSeconds returns the user+system CPU time the process has
// consumed so far, from /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesized and may contain
	// spaces; the numeric fields start after the last ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	fields := strings.Fields(string(data[i+1:]))
	// fields[0] is field 3 (state); utime and stime are fields 14, 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("non-numeric CPU fields in /proc/%d/stat", pid)
	}
	return float64(utime+stime) / clockTicksPerSecond, nil
}

// procPeakRSSMB returns the process's peak resident set size (VmHWM)
// in MB, from /proc/<pid>/status.
func procPeakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0, fmt.Errorf("malformed VmHWM line %q", sc.Text())
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrape fetches GET /metrics and sums every sample by family name
// (labels dropped, histogram bucket lines skipped), returning the sums
// and how long the request took. A family the daemon does not export
// is simply absent from the map.
func scrape(client *http.Client, base string) (map[string]float64, time.Duration, error) {
	start := time.Now()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	took := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	sums := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		sums[name] += v
	}
	return sums, took, nil
}
