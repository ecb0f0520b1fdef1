package sim

import "lineartime/internal/rng"

// floodNode is a richer test protocol for the engine-equivalence test:
// nodes flood a bit over a ring with pseudo-random extra edges and halt
// after a fixed horizon, so the transcript exercises multi-message
// rounds, ordering, and crashes.
type floodNode struct {
	id, n   int
	value   bool
	links   []int
	horizon int
	rounds  int
	sendIt  bool
}

func newFloodNode(id, n, horizon int, seed uint64) *floodNode {
	r := rng.New(seed + uint64(id)*7919)
	links := []int{(id + 1) % n, (id + n - 1) % n}
	links = append(links, r.Intn(n))
	f := &floodNode{id: id, n: n, links: links, horizon: horizon}
	if id == 0 {
		f.value = true
		f.sendIt = true
	}
	return f
}

func (f *floodNode) Send(round int) []Envelope {
	if !f.sendIt {
		return nil
	}
	f.sendIt = false
	var out []Envelope
	for _, to := range f.links {
		if to != f.id {
			out = append(out, Envelope{From: f.id, To: to, Payload: Bit(true)})
		}
	}
	return out
}

func (f *floodNode) Deliver(round int, inbox []Envelope) {
	if len(inbox) > 0 && !f.value {
		f.value = true
		f.sendIt = true
	}
	f.rounds++
}

func (f *floodNode) Halted() bool { return f.rounds >= f.horizon }

func buildFlood(n, horizon int, seed uint64) ([]Protocol, []*floodNode) {
	ps := make([]Protocol, n)
	fs := make([]*floodNode, n)
	for i := 0; i < n; i++ {
		f := newFloodNode(i, n, horizon, seed)
		ps[i], fs[i] = f, f
	}
	return ps, fs
}
