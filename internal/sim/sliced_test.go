package sim

import (
	"errors"

	"reflect"
	"testing"
)

// escapingFlood wraps wordFlood and escapes chosen lanes at chosen
// phases, exercising the engine's escape-lane retirement.
type escapingFlood struct {
	*wordFlood
	sendEscape    uint64 // escape mask returned once at sendRound
	sendRound     int
	deliverEscape uint64
	deliverRound  int
}

func (e *escapingFlood) SlicedSend(round, node int, active uint64, out []SlicedMsg) ([]SlicedMsg, uint64) {
	out, _ = e.wordFlood.SlicedSend(round, node, active, out)
	if round == e.sendRound && node == 0 {
		return out, e.sendEscape
	}
	return out, 0
}

func (e *escapingFlood) SlicedDeliver(round, node int, active uint64, inbox []SlicedMsg) uint64 {
	e.wordFlood.SlicedDeliver(round, node, active, inbox)
	if round == e.deliverRound && node == 1 {
		return e.deliverEscape
	}
	return 0
}

// TestSlicedEscapeLanes: lanes flagged by the system leave the sliced
// path (Escaped set, no result), and the surviving lanes still match
// the scalar engine exactly.
func TestSlicedEscapeLanes(t *testing.T) {
	const n, tBound, lanes = 24, 5, 16
	maxRounds := tBound + 2 + 8
	inputs := make([]bool, n)
	for i := range inputs {
		inputs[i] = i%3 == 0
	}
	const sendEsc, deliverEsc = uint64(1) << 3, uint64(1) << 10
	sys := &escapingFlood{
		wordFlood:  newWordFlood(n, tBound, lanes, inputs),
		sendEscape: sendEsc, sendRound: 1,
		deliverEscape: deliverEsc, deliverRound: 2,
	}
	res, err := RunSliced(SlicedConfig{System: sys, Lanes: lanes, MaxRounds: maxRounds})
	if err != nil {
		t.Fatalf("sliced run: %v", err)
	}
	if res.Escaped != sendEsc|deliverEsc {
		t.Fatalf("Escaped = %#x, want %#x", res.Escaped, sendEsc|deliverEsc)
	}
	for lane := 0; lane < lanes; lane++ {
		lr := &res.Lanes[lane]
		if b := uint64(1) << lane; b&(sendEsc|deliverEsc) != 0 {
			if !lr.Escaped {
				t.Fatalf("lane %d: Escaped not set", lane)
			}
			continue
		}
		if lr.Escaped || lr.Err != nil {
			t.Fatalf("lane %d: unexpected escape/error: %v", lane, lr.Err)
		}
		nodes := make([]*consFlood, n)
		ps := make([]Protocol, n)
		for i := range ps {
			nodes[i] = &consFlood{id: i, n: n, t: tBound, candidate: inputs[i], pending: inputs[i]}
			ps[i] = nodes[i]
		}
		want, err := Run(Config{Protocols: ps, MaxRounds: maxRounds})
		if err != nil {
			t.Fatalf("lane %d: scalar: %v", lane, err)
		}
		if !reflect.DeepEqual(want.Metrics, lr.Metrics) {
			t.Fatalf("lane %d: metrics diverged:\nscalar %+v\nsliced %+v", lane, want.Metrics, lr.Metrics)
		}
	}
}

// stubbornSys halts every node at round 0 except in the stuck lanes,
// which never halt — those lanes must carry the scalar engine's
// ErrNoTermination.
type stubbornSys struct {
	n      int
	stuck  uint64
	halted []uint64
}

func (s *stubbornSys) N() int { return s.n }

func (s *stubbornSys) SlicedSend(round, node int, active uint64, out []SlicedMsg) ([]SlicedMsg, uint64) {
	return out, 0
}

func (s *stubbornSys) SlicedDeliver(round, node int, active uint64, inbox []SlicedMsg) uint64 {
	s.halted[node] |= active &^ s.stuck
	return 0
}

func (s *stubbornSys) HaltedLanes(node int) uint64 { return s.halted[node] }

func TestSlicedNoTermination(t *testing.T) {
	const n, lanes, maxRounds = 4, 8, 6
	stuck := uint64(1)<<2 | uint64(1)<<5
	sys := &stubbornSys{n: n, stuck: stuck, halted: make([]uint64, n)}
	res, err := RunSliced(SlicedConfig{System: sys, Lanes: lanes, MaxRounds: maxRounds})
	if err != nil {
		t.Fatalf("sliced run: %v", err)
	}
	for lane := 0; lane < lanes; lane++ {
		lr := &res.Lanes[lane]
		if stuck&(uint64(1)<<lane) != 0 {
			if !errors.Is(lr.Err, ErrNoTermination) {
				t.Fatalf("stuck lane %d: err = %v, want ErrNoTermination", lane, lr.Err)
			}
			continue
		}
		if lr.Err != nil {
			t.Fatalf("lane %d: err = %v", lane, lr.Err)
		}
		if lr.Metrics.Rounds != 1 {
			t.Fatalf("lane %d: rounds = %d, want 1", lane, lr.Metrics.Rounds)
		}
	}
}

// TestSlicedRejectsNonSliceableFault: a fault without CrashEvents (an
// adaptive adversary) must fail the whole run with ErrNotSliceable so
// the caller falls back to the scalar engine.
func TestSlicedRejectsNonSliceableFault(t *testing.T) {
	const n, tBound, lanes = 8, 2, 4
	sys := newWordFlood(n, tBound, lanes, make([]bool, n))
	faults := make([]LinkFault, lanes)
	faults[2] = newMultiCrash(n, 2, tBound+2, 9)
	_, err := RunSliced(SlicedConfig{System: sys, Lanes: lanes, MaxRounds: tBound + 4, Faults: faults})
	if !errors.Is(err, ErrNotSliceable) {
		t.Fatalf("err = %v, want ErrNotSliceable", err)
	}
}

func TestSlicedConfigValidation(t *testing.T) {
	sys := newWordFlood(4, 1, 2, make([]bool, 4))
	cases := []SlicedConfig{
		{System: nil, Lanes: 2, MaxRounds: 4},
		{System: sys, Lanes: 0, MaxRounds: 4},
		{System: sys, Lanes: 65, MaxRounds: 4},
		{System: sys, Lanes: 2, MaxRounds: 0},
		{System: sys, Lanes: 2, MaxRounds: 4, Faults: make([]LinkFault, 3)},
	}
	for i, cfg := range cases {
		if _, err := RunSliced(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

// TestRuntimeSlicedReuse re-runs sliced configurations of different
// shapes on one Runtime and demands each match a fresh-arena run: any
// state the sliced arena fails to reset between runs diverges a lane.
func TestRuntimeSlicedReuse(t *testing.T) {
	rt := NewRuntime()
	shapes := []struct {
		n, tBound, lanes int
	}{
		{24, 5, 16},
		{48, 8, 64},
		{12, 3, 7},
		{48, 8, 64}, // same shape again: fully recycled arena
	}
	for si, sh := range shapes {
		inputs := make([]bool, sh.n)
		for i := range inputs {
			inputs[i] = i%3 == 0
		}
		faults := make([]LinkFault, sh.lanes)
		for lane := range faults {
			switch lane % 3 {
			case 1:
				faults[lane] = planCrash{events: laneCrashEvents(sh.n, sh.n/6, sh.tBound+2, uint64(si*100+lane))}
			case 2:
				faults[lane] = hashLink{d: 2, seed: uint64(si*100 + lane)}
			}
		}
		maxRounds := sh.tBound + 2 + 8
		cfg := SlicedConfig{System: newWordFlood(sh.n, sh.tBound, sh.lanes, inputs), Lanes: sh.lanes, MaxRounds: maxRounds, Faults: faults}
		got, err := rt.RunSliced(cfg)
		if err != nil {
			t.Fatalf("shape %d: pooled: %v", si, err)
		}
		cfg.System = newWordFlood(sh.n, sh.tBound, sh.lanes, inputs)
		want, err := RunSliced(cfg)
		if err != nil {
			t.Fatalf("shape %d: fresh: %v", si, err)
		}
		for lane := 0; lane < sh.lanes; lane++ {
			w, g := &want.Lanes[lane], &got.Lanes[lane]
			if !reflect.DeepEqual(w.Metrics, g.Metrics) {
				t.Fatalf("shape %d lane %d: metrics diverged:\nfresh  %+v\npooled %+v", si, lane, w.Metrics, g.Metrics)
			}
			if !w.Crashed.Equal(g.Crashed) {
				t.Fatalf("shape %d lane %d: crash sets diverged", si, lane)
			}
			if !reflect.DeepEqual(w.HaltedAt, g.HaltedAt) {
				t.Fatalf("shape %d lane %d: HaltedAt diverged", si, lane)
			}
		}
	}
}

// BenchmarkEngineSliced measures the sliced engine at full width
// against the flooding workload (benchjson's engine/sliced pair
// measures the scenario-level path; this is the raw engine).
func BenchmarkEngineSliced(b *testing.B) {
	const n, tBound, lanes = 256, 8, 64
	inputs := make([]bool, n)
	for i := range inputs {
		inputs[i] = i%3 == 0
	}
	rt := NewRuntime()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := newWordFlood(n, tBound, lanes, inputs)
		if _, err := rt.RunSliced(SlicedConfig{System: sys, Lanes: lanes, MaxRounds: tBound + 10}); err != nil {
			b.Fatal(err)
		}
	}
}
