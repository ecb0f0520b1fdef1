package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

func TestSweepQuickSingleExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps skipped in -short mode")
	}
	for _, exp := range []string{"E3", "E5", "E10", "E11"} {
		t.Run(exp, func(t *testing.T) {
			if err := run([]string{"-quick", "-exp", exp}, io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSweepT1MatchesTable1Golden runs Table 1 alone (quick: n=128,
// seed 1) and pins it byte-for-byte to its golden, whose figures equal
// those the former standalone Table 1 command printed.
func TestSweepT1MatchesTable1Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("table1 regeneration skipped in -short mode")
	}
	want, err := os.ReadFile("../../testdata/sweep_quick_t1_golden.txt")
	if err != nil {
		t.Fatalf("reading T1 golden: %v", err)
	}
	var got bytes.Buffer
	if err := run([]string{"-quick", "-exp", "T1"}, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("sweep -quick -exp T1 diverged from golden\n--- got ---\n%s\n--- want ---\n%s",
			firstDiff(got.Bytes(), want), firstDiff(want, got.Bytes()))
	}
}

func TestSweepUnknownExperimentIsNoop(t *testing.T) {
	if err := run([]string{"-exp", "E99"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestSweepBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-seeds", "0"}, io.Discard); err == nil {
		t.Fatal("-seeds 0 accepted")
	}
	// E99 is a no-op, so only the stray argument can fail this run.
	if err := run([]string{"-exp", "E99", "stray"}, io.Discard); err == nil {
		t.Fatal("stray argument accepted")
	}
}

// TestSweepSingleSeedIsDefault pins -seeds 1 byte-identical to a run
// without the flag: the multi-seed path must not perturb the committed
// single-seed tables.
func TestSweepSingleSeedIsDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps skipped in -short mode")
	}
	var plain, seeded bytes.Buffer
	if err := run([]string{"-quick", "-exp", "E11"}, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-quick", "-exp", "E11", "-seeds", "1"}, &seeded); err != nil {
		t.Fatal(err)
	}
	if plain.String() != seeded.String() {
		t.Fatalf("-seeds 1 output diverged from default:\n%s\nvs\n%s", plain.String(), seeded.String())
	}
}

// TestSweepMultiSeed runs the E11 comparison aggregated over 64 seeds —
// the bit-sliced batch path end to end.
func TestSweepMultiSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps skipped in -short mode")
	}
	var plain, seeded bytes.Buffer
	if err := run([]string{"-quick", "-exp", "E11"}, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-quick", "-exp", "E11", "-seeds", "64"}, &seeded); err != nil {
		t.Fatal(err)
	}
	if seeded.Len() == 0 || seeded.String() == plain.String() {
		t.Fatalf("-seeds 64 did not aggregate: output identical to single seed")
	}
}
