package main

import (
	"bytes"
	"os"
	"testing"
)

// TestSweepOutputMatchesPreRefactorGolden pins the registry-driven
// sweep to the committed pre-refactor serial output: the refactor onto
// internal/scenario/experiments must be byte-identical for the
// committed sweep configuration (-quick, all experiments).
//
// Regenerate intentionally (only when an experiment deliberately
// changes) with:
//
//	go run ./cmd/sweep -quick -parallel 1 > testdata/sweep_quick_golden.txt
//
// from the repository root.
func TestSweepOutputMatchesPreRefactorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick sweep skipped in -short mode")
	}
	golden, err := os.ReadFile("../../testdata/sweep_quick_golden.txt")
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	// Experiments added after the registry refactor (E12, the
	// link-fault matrix) append to the sweep; the pre-refactor golden
	// must survive as an exact prefix, and the appended block is pinned
	// by its own golden. Regenerate the E12 golden with:
	//
	//	go run ./cmd/sweep -quick -parallel 1 -exp E12 > testdata/sweep_quick_e12_golden.txt
	e12, err := os.ReadFile("../../testdata/sweep_quick_e12_golden.txt")
	if err != nil {
		t.Fatalf("reading E12 golden: %v", err)
	}
	// E13 (the chaos-campaign rows) appends after E12 and is pinned the
	// same way. Regenerate with:
	//
	//	go run ./cmd/sweep -quick -parallel 1 -exp E13 > testdata/sweep_quick_e13_golden.txt
	e13, err := os.ReadFile("../../testdata/sweep_quick_e13_golden.txt")
	if err != nil {
		t.Fatalf("reading E13 golden: %v", err)
	}
	// T1 (Table 1, formerly its own command) appends after E13; its rows
	// carry the numbers that command printed. Regenerate with:
	//
	//	go run ./cmd/sweep -quick -parallel 1 -exp T1 > testdata/sweep_quick_t1_golden.txt
	t1, err := os.ReadFile("../../testdata/sweep_quick_t1_golden.txt")
	if err != nil {
		t.Fatalf("reading T1 golden: %v", err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), golden...), e12...)
	want = append(append(want, e13...), t1...)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("sweep -quick output diverged from golden (pre-refactor E2–E11 + E12 + E13 + T1)\n--- got ---\n%s\n--- want ---\n%s",
			firstDiff(buf.Bytes(), want), firstDiff(want, buf.Bytes()))
	}
	if !bytes.HasPrefix(buf.Bytes(), golden) {
		t.Fatal("pre-refactor golden is no longer a prefix of the sweep output")
	}
}

// firstDiff returns a window of a around the first byte where a and b
// differ, to keep failure output readable.
func firstDiff(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 200
	if lo < 0 {
		lo = 0
	}
	hi := i + 200
	if hi > len(a) {
		hi = len(a)
	}
	return a[lo:hi]
}
