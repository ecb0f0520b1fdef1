package sim

import (
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"lineartime/internal/bitset"
)

// sizeCalls counts the SizeBits calls of the two payload types below. The
// package's tests never run in parallel, so a test reads its own delta.
var sizeCalls atomic.Int64

// boxed is a comparable protocol-defined payload; ids ≥ 256 keep the
// runtime from boxing equal values into one static word.
type boxed struct{ id int }

func (b boxed) SizeBits() int { sizeCalls.Add(1); return 9 + b.id%7 }

// bag is a payload == cannot compare: comparing two of them as
// interfaces panics.
type bag struct{ vals []int }

func (b bag) SizeBits() int { sizeCalls.Add(1); return 1 + 3*len(b.vals) }

// multicastScript is node id's outbox in a round, and how many runs of
// one boxed boxed-or-bag payload it holds: a three-way multicast; a
// different payload cutting it; an equal value boxed twice, which need
// not share; an uncomparable payload multicast and then boxed again; the
// one-bit kinds; and the first box once more, no longer adjacent to its
// run. Every fifth outbox is empty.
func multicastScript(n, id, round int) (out []Envelope, runs int) {
	if (id+round)%5 == 0 {
		return nil, 0
	}
	to := func(k int) int { return (id + k) % n }
	add := func(p Payload, ks ...int) {
		for _, k := range ks {
			out = append(out, Envelope{From: id, To: to(k), Payload: p})
		}
	}
	first := Payload(boxed{1000 + 16*id + round})
	add(first, 1, 2, 3)
	add(boxed{2000 + 16*id + round}, 4)
	add(boxed{3000 + id}, 5)
	add(boxed{3000 + id}, 6)
	add(bag{[]int{id, round}}, 1, 7)
	add(bag{[]int{id, round}}, 2)
	add(Bit(true), 3, 4)
	add(Inquiry{}, 5)
	add(Probe{Rumor: true}, 6)
	add(first, 8)
	return out, 7
}

// rebox returns an equal payload in a box of its own.
func rebox(p Payload) Payload {
	v := reflect.New(reflect.TypeOf(p)).Elem()
	v.Set(reflect.ValueOf(p))
	return v.Interface().(Payload)
}

// scripted sends multicastScript's outboxes — every envelope reboxed
// when rebox is set, so that no two share a box and every envelope is a
// run of its own — and keeps a copy of every inbox.
type scripted struct {
	n, id, live int
	rebox       bool
	got         [][]Envelope
}

func (s *scripted) Send(round int) []Envelope {
	out, _ := multicastScript(s.n, s.id, round)
	if s.rebox {
		for i := range out {
			out[i].Payload = rebox(out[i].Payload)
		}
	}
	return out
}

func (s *scripted) Deliver(_ int, inbox []Envelope) { s.got = append(s.got, slices.Clone(inbox)) }
func (s *scripted) Halted() bool                    { return len(s.got) >= s.live }

// cutter crashes a node at a round, letting only a prefix of its outbox
// out.
type cutter map[[2]int]int

func (c cutter) FilterSend(round int, from NodeID, outbox []Envelope) ([]Envelope, bool) {
	if keep, ok := c[[2]int{round, from}]; ok {
		return outbox[:min(keep, len(outbox))], true
	}
	return outbox, false
}

func scriptedConfig(n, live int, rebox bool) (Config, []*scripted) {
	ms := make([]*scripted, n)
	ps := make([]Protocol, n)
	for i := range ms {
		ms[i] = &scripted{n: n, id: i, live: live, rebox: rebox}
		ps[i] = ms[i]
	}
	byz := bitset.New(n)
	byz.Add(5)
	return Config{
		Protocols: ps,
		// Node 3's crash cuts the three-way multicast after two, node
		// 7's the uncomparable one after one.
		Fault:       cutter{{1, 3}: 2, {2, 7}: 7},
		Byzantine:   byz,
		MaxRounds:   live,
		PartLabeler: func(r int) string { return []string{"a", "", "b"}[r%3] },
	}, ms
}

// TestSizeBitsOncePerRunOfOneBox pins the run-length traffic
// accounting. As a function, against a per-envelope count: the same
// destination counts and bits for every keep prefix of every scripted
// outbox, and one SizeBits call per run of one box — seven for a whole
// outbox, where the per-envelope count makes ten. In the engine: a
// system whose multicasts share boxes and the same system with every envelope reboxed — runs cut by another payload,
// by an equal value boxed apart, by a crash's keep prefix mid-run, sent
// by a Byzantine node, carrying a payload == would panic on — give equal
// Messages, Bits, Byzantine counts, PerRoundMessages, PerPart and crash
// sets, equal to a per-envelope count over the script, and every node
// the same inboxes.
func TestSizeBitsOncePerRunOfOneBox(t *testing.T) {
	const n, live = 12, 5
	for id := 0; id < n; id++ {
		for round := 0; round < live; round++ {
			out, runs := multicastScript(n, id, round)
			for keep := len(out); keep >= 0; keep -= 3 {
				refCounts := make([]int32, n)
				var refBits int64
				for _, env := range out[:keep] {
					refCounts[env.To]++
					refBits += int64(env.Payload.SizeBits())
				}
				counts := make([]int32, n)
				before := sizeCalls.Load()
				bits := sizeRuns(counts, out[:keep])
				calls := sizeCalls.Load() - before
				if bits != refBits || !slices.Equal(counts, refCounts) {
					t.Fatalf("node %d round %d keep %d: %d bits %v, per envelope %d bits %v", id, round, keep, bits, counts, refBits, refCounts)
				}
				if bits != sizeRuns(nil, out[:keep]) {
					t.Fatalf("node %d round %d keep %d: the size depends on whether counts is set", id, round, keep)
				}
				if keep == len(out) && calls != int64(runs) {
					t.Fatalf("node %d round %d: %d SizeBits calls for %d runs", id, round, calls, runs)
				}
			}
		}
	}

	type outcome struct {
		res   *Result
		got   [][][]Envelope
		calls int64
	}
	run := func(rebox bool) outcome {
		cfg, ms := scriptedConfig(n, live, rebox)
		before := sizeCalls.Load()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		o := outcome{res: res, calls: sizeCalls.Load() - before}
		for _, m := range ms {
			o.got = append(o.got, m.got)
		}
		return o
	}
	want := run(true)
	got := run(false)
	if !reflect.DeepEqual(got.res, want.res) {
		t.Fatalf("%+v, per-envelope run %+v", got.res.Metrics, want.res.Metrics)
	}
	if !reflect.DeepEqual(got.got, want.got) {
		t.Fatal("inboxes differ from the per-envelope run's")
	}
	if got.calls >= want.calls {
		t.Fatalf("%d SizeBits calls, %d with every envelope boxed apart", got.calls, want.calls)
	}
	// The per-envelope count over the script.
	var m Metrics
	m.PerPart = map[string]int64{}
	cfg, _ := scriptedConfig(n, live, false)
	dead := map[int]bool{}
	for round := 0; round < live; round++ {
		m.PerRoundMessages = append(m.PerRoundMessages, 0)
		for id := 0; id < n; id++ {
			if dead[id] {
				continue
			}
			out, _ := multicastScript(n, id, round)
			out, dead[id] = cfg.Fault.FilterSend(round, id, out)
			for _, env := range out {
				if id == 5 {
					m.ByzMessages++
					m.ByzBits += int64(env.Payload.SizeBits())
					continue
				}
				m.Messages++
				m.Bits += int64(env.Payload.SizeBits())
				m.PerRoundMessages[round]++
				if label := cfg.PartLabeler(round); label != "" {
					m.PerPart[label]++
				}
			}
		}
	}
	m.Rounds = live
	if !reflect.DeepEqual(want.res.Metrics, m) {
		t.Fatalf("engine metrics %+v, counted from the script %+v", want.res.Metrics, m)
	}
}

// TestOneBitPayloadsShareBoxes pins what sizeRuns's comment promises for
// the package's own payloads: equal one-bit values computed at run time
// are one box, so a run of them is one SizeBits call.
func TestOneBitPayloadsShareBoxes(t *testing.T) {
	for _, v := range []bool{false, true} {
		for _, mk := range []func(bool) Payload{
			func(b bool) Payload { return Bit(b) },
			func(b bool) Payload { return Probe{Rumor: Bit(b)} },
			func(bool) Payload { return Inquiry{} },
		} {
			if a, b := mk(v), mk(v); !sameBox(a, b) {
				t.Fatalf("%#v: equal values boxed apart", a)
			}
		}
	}
}
