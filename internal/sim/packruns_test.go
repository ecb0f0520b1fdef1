package sim

import (
	"reflect"
	"slices"
	"testing"

	"lineartime/internal/bitset"
)

// boxed is a comparable protocol-defined payload; ids ≥ 256 keep the
// runtime from boxing equal values into one static word.
type boxed struct{ id int }

func (b boxed) SizeBits() int { return 9 + b.id%7 }

// bag is a payload == cannot compare: comparing two of them as
// interfaces panics.
type bag struct{ vals []int }

func (b bag) SizeBits() int { return 1 + 3*len(b.vals) }

// packEach is the packer packRuns replaced, kept as its reference: one
// packEnvelope per envelope, one escape entry per escape envelope.
func packEach(buf []wireMsg, counts []int32, deliver []Envelope, esc *escTable, table uint64) ([]wireMsg, int64) {
	var bits int64
	for i := range deliver {
		wm, b := packEnvelope(&deliver[i], esc, table)
		buf = append(buf, wm)
		if counts != nil {
			counts[wm.To]++
		}
		bits += b
	}
	return buf, bits
}

// multicastScript is node id's outbox in a round, and how many runs of
// one boxed escape payload it holds: a three-way multicast; a different
// payload cutting it; an equal value boxed twice, which need not share;
// an uncomparable payload multicast and then boxed again; the inline
// kinds, which take no table entry; and the first box once more, no
// longer adjacent to its run. Every fifth outbox is empty.
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
// when rebox is set, so that no two share a box and packRuns packs each
// on its own — and keeps a copy of every inbox.
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

// TestPackSharesIdenticalBoxesOnly pins the run-aware packer. As a
// function, against the per-envelope packer it replaced: the same wire
// messages carrying the same boxes, the same destination counts and
// bits, and one table entry per run where the reference takes one per
// escape envelope. In the engines, sequential and parallel: a system
// whose multicasts share boxes and the same system with every envelope
// reboxed — runs cut by another payload, by an equal value boxed apart,
// by a crash's keep prefix mid-run, sent by a Byzantine node, carrying a
// payload == would panic on — give equal Messages, Bits, Byzantine
// counts, PerRoundMessages, PerPart and crash sets, equal to a per-envelope
// count over the script, and every node the same inboxes.
func TestPackSharesIdenticalBoxesOnly(t *testing.T) {
	const n, live = 12, 5
	for id := 0; id < n; id++ {
		for round := 0; round < live; round++ {
			out, runs := multicastScript(n, id, round)
			for keep := len(out); keep >= 0; keep -= 3 {
				var esc, refEsc escTable
				counts, refCounts := make([]int32, n), make([]int32, n)
				got, bits := packRuns(nil, counts, out[:keep], &esc, 3)
				want, refBits := packEach(nil, refCounts, out[:keep], &refEsc, 3)
				if bits != refBits || !slices.Equal(counts, refCounts) || len(got) != len(want) {
					t.Fatalf("node %d round %d keep %d: %d bits %v, reference %d bits %v", id, round, keep, bits, counts, refBits, refCounts)
				}
				st := &state{par: &shards{work: make([]workerShard, 3)}}
				st.par.work[2].esc = esc
				for i := range got {
					if got[i].From != want[i].From || got[i].To != want[i].To || wireIsEscape(got[i].word) != wireIsEscape(want[i].word) {
						t.Fatalf("node %d round %d: message %d is %+v, reference %+v", id, round, i, got[i], want[i])
					}
					if p := st.unpackPayload(got[i].word); !sameBox(p, out[i].Payload) && wireIsEscape(got[i].word) || !reflect.DeepEqual(p, out[i].Payload) {
						t.Fatalf("node %d round %d: message %d unpacks to %#v, sent %#v", id, round, i, p, out[i].Payload)
					}
				}
				if keep == len(out) && (len(esc.entries) != runs || len(refEsc.entries) != 10*min(runs, 1)) {
					t.Fatalf("node %d round %d: %d table entries for %d runs (reference %d)", id, round, len(esc.entries), runs, len(refEsc.entries))
				}
			}
		}
	}

	type outcome struct {
		res *Result
		got [][][]Envelope
	}
	run := func(rebox, parallel bool) outcome {
		cfg, ms := scriptedConfig(n, live, rebox)
		res, err := Run(cfg)
		if parallel {
			cfg, ms = scriptedConfig(n, live, rebox)
			res, err = RunParallel(cfg, 3)
		}
		if err != nil {
			t.Fatal(err)
		}
		o := outcome{res: res}
		for _, m := range ms {
			o.got = append(o.got, m.got)
		}
		return o
	}
	want := run(true, false)
	for _, c := range []struct{ rebox, parallel bool }{{false, false}, {false, true}, {true, true}} {
		got := run(c.rebox, c.parallel)
		if !reflect.DeepEqual(got.res, want.res) {
			t.Fatalf("rebox=%v parallel=%v: %+v, per-envelope run %+v", c.rebox, c.parallel, got.res.Metrics, want.res.Metrics)
		}
		if !reflect.DeepEqual(got.got, want.got) {
			t.Fatalf("rebox=%v parallel=%v: inboxes differ from the per-envelope run's", c.rebox, c.parallel)
		}
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

// TestEscapeTableHoldsOneEntryPerRun steps the sequential engine and
// reads its table after every round: one entry per run of a shared box,
// one per escape envelope once every envelope is boxed apart.
func TestEscapeTableHoldsOneEntryPerRun(t *testing.T) {
	const n, live = 12, 4
	for _, rebox := range []bool{false, true} {
		cfg, _ := scriptedConfig(n, live, rebox)
		cfg.Fault = nil
		s, err := NewStepper(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < live; round++ {
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
			want := 0
			for id := 0; id < n; id++ {
				_, runs := multicastScript(n, id, round)
				if rebox {
					runs = 10 * min(runs, 1) // the script's escape envelopes
				}
				want += runs
			}
			if got := len(s.st.esc.entries); got != want || len(s.st.esc.free) != 0 {
				t.Fatalf("rebox=%v round %d: %d table entries (%d freed), want %d", rebox, round, got, len(s.st.esc.free), want)
			}
		}
	}
}

// mixedDelays is a link filter that delivers, delays by one or two
// rounds, or drops, by destination and round.
type mixedDelays struct{ NoFailures }

func (mixedDelays) MaxDelay() int { return 2 }
func (mixedDelays) FilterLink(round int, env Envelope) Verdict {
	return Verdict((round+env.To)%4 - 1)
}

// spSender is a single-port machine sending one escape payload a round
// around a ring and polling its predecessors in turn, so that ports
// fill faster than they drain.
type spSender struct{ n, id, rounds int }

func (s *spSender) Send(round int) []Envelope {
	return []Envelope{{From: s.id, To: (s.id + 1 + round%3) % s.n, Payload: boxed{4000 + s.id}}}
}
func (s *spSender) Poll(round int) (NodeID, bool) {
	return (s.id + s.n - 1 - round%2) % s.n, round%3 != 0
}
func (s *spSender) Deliver(int, []Envelope) { s.rounds++ }
func (s *spSender) Halted() bool            { return s.rounds >= 9+s.id%3 }

// TestReleasedEntriesAreNeverShared covers the two places escape
// entries are released one by one instead of with their table — a link
// filter's delay ring, and the single-port rings, where nodes also halt
// with undrained ports: after every round no entry is on the free list
// twice, every parked word has a live entry of its own, and escLive
// counts exactly the parked words.
func TestReleasedEntriesAreNeverShared(t *testing.T) {
	const n = 12
	filtered, _ := scriptedConfig(n, 8, false)
	filtered.Fault, filtered.Byzantine = mixedDelays{}, nil
	ps := make([]Protocol, n)
	for i := range ps {
		ps[i] = &spSender{n: n, id: i}
	}
	for name, cfg := range map[string]Config{
		"link filter": filtered,
		"single port": {Protocols: ps, SinglePort: true, MaxRounds: 12},
	} {
		s, err := NewStepper(cfg)
		if err != nil {
			t.Fatal(err)
		}
		parkedEver := 0
		for {
			done, err := s.Step()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if done {
				break
			}
			st := s.st
			var parked []wireMsg
			if st.ring != nil {
				for _, slot := range st.ring.slots {
					parked = append(parked, slot...)
				}
			}
			for i := range st.ports {
				for _, r := range st.ports[i].rings {
					for k := 0; k < r.size; k++ {
						parked = append(parked, r.buf[(r.head+k)&(len(r.buf)-1)])
					}
				}
			}
			owner := make(map[uint32]string)
			for _, i := range st.esc.free {
				if owner[i] != "" || st.esc.entries[i] != nil {
					t.Fatalf("%s round %d: entry %d released twice, or released and still set", name, s.Round(), i)
				}
				owner[i] = "free"
			}
			for _, wm := range parked {
				if !wireIsEscape(wm.word) {
					continue
				}
				i := wireEscIndex(wm.word)
				if owner[i] != "" || st.esc.entries[i] == nil {
					t.Fatalf("%s round %d: parked message %+v shares entry %d (%s)", name, s.Round(), wm, i, owner[i])
				}
				owner[i] = "parked"
				parkedEver++
			}
			if live := len(owner) - len(st.esc.free); live != st.escLive {
				t.Fatalf("%s round %d: %d escapes parked, escLive %d", name, s.Round(), live, st.escLive)
			}
		}
		if parkedEver == 0 {
			t.Fatalf("%s: no escape was ever parked across a round", name)
		}
	}
}
