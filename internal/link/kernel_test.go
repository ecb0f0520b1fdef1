package link

import (
	"fmt"
	"testing"

	"lineartime/internal/rng"
	"lineartime/internal/sim"
)

// wordChatter is chatter for the bit-sliced engine: every node sends to
// every other node in all of its active lanes each round and records
// each delivery — arrival round, sender, lanes.
type wordChatter struct {
	n, horizon int
	halted     []uint64
	got        [][]wordDelivery
}

type wordDelivery struct {
	round int
	from  int32
	lanes uint64
}

func (w *wordChatter) N() int { return w.n }

func (w *wordChatter) SlicedSend(round, node int, active uint64, out []sim.SlicedMsg) ([]sim.SlicedMsg, uint64) {
	for to := 0; to < w.n; to++ {
		if to != node {
			out = append(out, sim.SlicedMsg{From: int32(node), To: int32(to), Lanes: active, Bits: active})
		}
	}
	return out, 0
}

func (w *wordChatter) SlicedDeliver(round, node int, active uint64, inbox []sim.SlicedMsg) uint64 {
	for _, m := range inbox {
		if l := m.Lanes & active; l != 0 {
			w.got[node] = append(w.got[node], wordDelivery{round: round, from: m.From, lanes: l})
		}
	}
	if round == w.horizon-1 {
		w.halted[node] |= active
	}
	return 0
}

func (w *wordChatter) HaltedLanes(node int) uint64 { return w.halted[node] }

// TestKernelDeclarations pins what each model declares: the family and
// exactly the parameters its FilterLink reads.
func TestKernelDeclarations(t *testing.T) {
	o := NewOmission(0.25, 11)
	if k := o.LinkKernel(); k != (sim.LinkKernel{Kind: sim.KernelOmission, Seed: 11, Threshold: 1 << 62}) {
		t.Fatalf("omission declares %+v", k)
	}
	d := NewDelay(3, 12)
	if k := d.LinkKernel(); k != (sim.LinkKernel{Kind: sim.KernelDelay, Seed: 12, Delay: 3}) || k.Delay != d.MaxDelay() {
		t.Fatalf("delay declares %+v", k)
	}
	p := NewPartition(2, 5, 4)
	if k := p.LinkKernel(); k != (sim.LinkKernel{Kind: sim.KernelPartition, Start: 2, End: 5, Cut: 4}) {
		t.Fatalf("partition declares %+v", k)
	}
}

// TestSlicedLanesMatchScalarDeliveries runs 64 lanes of randomly drawn
// omission, delay and partition faults through the bit-sliced engine —
// where these models are answered by lane kernels, never by FilterLink
// — and pins every lane's delivery transcript (arrival round and
// sender, in inbox order) and message count against the scalar engine
// running the same fault value through FilterLink.
func TestSlicedLanesMatchScalarDeliveries(t *testing.T) {
	const n, horizon, lanes = 9, 7, 64
	r := rng.New(0x11a4)
	faults := make([]sim.LinkFault, lanes)
	for lane := range faults {
		switch lane % 4 {
		case 0:
			faults[lane] = NewOmission([]float64{0, 1, 0.3, 0.05}[lane/4%4], r.Uint64())
		case 1:
			faults[lane] = NewDelay(lane/4%6, r.Uint64()) // d = 0..5
		case 2:
			start := r.Intn(horizon)
			faults[lane] = NewPartition(start, start+r.Intn(horizon-start+1), []int{0, 1, n / 2, n}[lane/4%4])
		}
	}
	w := &wordChatter{n: n, horizon: horizon, halted: make([]uint64, n), got: make([][]wordDelivery, n)}
	res, err := sim.RunSliced(sim.SlicedConfig{System: w, Lanes: lanes, MaxRounds: horizon + 8, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < lanes; lane++ {
		tag := fmt.Sprintf("lane %d (%T)", lane, faults[lane])
		cs, want := runChatter(t, n, horizon, faults[lane])
		lr := res.Lanes[lane]
		if lr.Err != nil || lr.Escaped || lr.Metrics.Messages != want.Metrics.Messages || lr.Metrics.Rounds != want.Metrics.Rounds {
			t.Fatalf("%s: sliced %+v (err %v), scalar %+v", tag, lr.Metrics, lr.Err, want.Metrics)
		}
		for node, c := range cs {
			i := 0
			for _, d := range w.got[node] {
				if d.lanes>>lane&1 == 0 {
					continue
				}
				if i >= len(c.got) || c.gotRound[i] != d.round || c.got[i].From != int(d.from) {
					t.Fatalf("%s: node %d delivery %d: sliced round %d from %d, scalar has %d deliveries", tag, node, i, d.round, d.from, len(c.got))
				}
				i++
			}
			if i != len(c.got) {
				t.Fatalf("%s: node %d received %d envelopes sliced, %d scalar", tag, node, i, len(c.got))
			}
		}
	}
}
