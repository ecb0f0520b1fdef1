package main

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lineartime/internal/campaign"
	"lineartime/internal/scenario"
	"lineartime/internal/serve"
)

var quickArgs = []string{
	"-scenario", "consensus/few-crashes", "-n", "12", "-t", "2", "-seed", "1",
	"-sims", "12", "-waves", "2", "-topk", "3", "-kinds", "omission,delay",
}

func quickSpec() campaign.Spec {
	return campaign.Spec{
		Scenario: "consensus/few-crashes",
		N:        12,
		T:        2,
		Seed:     1,
		Kinds:    []string{campaign.KindOmission, campaign.KindDelay},
		Budget:   campaign.Budget{MaxSims: 12, MaxWaves: 2, TopK: 3},
	}
}

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(args, &out)
	return out.String(), err
}

// TestLocalDeterministic pins the CLI's local mode: two runs of the
// same flags produce byte-identical, schema-valid artifacts.
func TestLocalDeterministic(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	if _, err := runCLI(t, append(quickArgs, "-o", a)...); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if _, err := runCLI(t, append(quickArgs, "-o", b)...); err != nil {
		t.Fatalf("second run: %v", err)
	}
	ba, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Fatalf("artifacts differ:\n%s\nvs\n%s", ba, bb)
	}
	if err := campaign.ValidateFrontier(ba); err != nil {
		t.Fatalf("artifact invalid: %v", err)
	}

	out, err := runCLI(t, "-validate", a)
	if err != nil {
		t.Fatalf("-validate: %v", err)
	}
	if !strings.Contains(out, "valid") {
		t.Fatalf("-validate output %q", out)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(t, "-validate", bad); err == nil {
		t.Fatal("-validate accepted a wrong-schema artifact")
	}
}

// TestStateResume interrupts a campaign (through the controller API),
// persists its checkpoint the way the CLI does, and requires the CLI
// to resume it to the artifact an uninterrupted run produces.
func TestStateResume(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.json")
	if _, err := runCLI(t, append(quickArgs, "-o", full)...); err != nil {
		t.Fatalf("full run: %v", err)
	}
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	localRun := func(_ context.Context, sp scenario.Spec) (*scenario.Report, error) {
		return scenario.Run(sp)
	}
	ctrl, err := campaign.New(quickSpec(), localRun, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctrl.SetBatchHook(func(*campaign.Checkpoint) { cancel() })
	if _, err := ctrl.Run(ctx); !errors.Is(err, campaign.ErrInterrupted) {
		t.Fatalf("Run: %v, want ErrInterrupted", err)
	}
	state := filepath.Join(dir, "state.json")
	if err := writeCheckpoint(state, ctrl.Checkpoint()); err != nil {
		t.Fatal(err)
	}

	resumed := filepath.Join(dir, "resumed.json")
	out, err := runCLI(t, append(quickArgs, "-state", state, "-o", resumed)...)
	if err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if !strings.Contains(out, "resuming") {
		t.Fatalf("resume output %q lacks the resume notice", out)
	}
	got, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed artifact diverged:\n%s\nvs\n%s", got, want)
	}
	if _, err := os.Stat(state); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("completed campaign left its checkpoint behind (err=%v)", err)
	}

	// A checkpoint for different flags must be refused, not silently
	// replayed.
	if err := writeCheckpoint(state, ctrl.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	otherArgs := append([]string{}, quickArgs...)
	otherArgs[7] = "2" // different seed
	if _, err := runCLI(t, append(otherArgs, "-state", state)...); err == nil {
		t.Fatal("checkpoint of a different campaign accepted")
	}
}

// TestRemote drives the daemon path: submit, poll, artifact identical
// to the local run; -nowait prints the id and -watch attaches to it.
func TestRemote(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	dir := t.TempDir()
	local := filepath.Join(dir, "local.json")
	if _, err := runCLI(t, append(quickArgs, "-o", local)...); err != nil {
		t.Fatalf("local run: %v", err)
	}
	want, err := os.ReadFile(local)
	if err != nil {
		t.Fatal(err)
	}

	remote := filepath.Join(dir, "remote.json")
	if _, err := runCLI(t, append(quickArgs, "-addr", ts.URL, "-o", remote)...); err != nil {
		t.Fatalf("remote run: %v", err)
	}
	got, err := os.ReadFile(remote)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("remote artifact diverged from local:\n%s\nvs\n%s", got, want)
	}

	// -nowait prints the job id (the campaign is already done on the
	// daemon, so re-POST dedups); -watch retrieves it.
	out, err := runCLI(t, append(quickArgs, "-addr", ts.URL, "-nowait")...)
	if err != nil {
		t.Fatalf("-nowait: %v", err)
	}
	id := strings.TrimSpace(out)
	if id != quickSpec().ID() {
		t.Fatalf("-nowait printed %q, want %s", id, quickSpec().ID())
	}
	watched := filepath.Join(dir, "watched.json")
	if _, err := runCLI(t, "-addr", ts.URL, "-watch", id, "-o", watched); err != nil {
		t.Fatalf("-watch: %v", err)
	}
	got, err = os.ReadFile(watched)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("watched artifact diverged:\n%s\nvs\n%s", got, want)
	}
}

func TestFlagErrors(t *testing.T) {
	if _, err := runCLI(t, "-badflag"); err == nil {
		t.Fatal("bad flag accepted")
	}
	if _, err := runCLI(t, "-nowait"); err == nil {
		t.Fatal("-nowait without -addr accepted")
	}
	if _, err := runCLI(t, "-nowait", "stray"); err == nil || !strings.Contains(err.Error(), `unexpected argument "stray"`) {
		t.Fatalf("stray argument: %v", err)
	}
	if _, err := runCLI(t, "-scenario", "no/such/scenario"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := runCLI(t, "-validate", filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing -validate file accepted")
	}
}
