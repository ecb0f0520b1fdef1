// Package simtest holds test helpers for protocols written against the
// sim engine. It lives outside the _test files so the packages above
// sim (consensus, scenario) can audit their machines with it.
package simtest

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"unsafe"

	"lineartime/internal/sim"
)

// Auditor checks a machine's sim.Sleeper promises against what the
// machine then does. It forwards Send, Deliver and Halted but has no
// QuietUntil, RepeatUntil or Ignores of its own, so a run over Auditors
// executes every round and hands every live machine its whole inbox (a
// broken Ignores promise shows as a run that differs from the visible
// one); each round it asks the wrapped machine the first two questions
// and records a violation if the machine breaks an answer: inside a
// promised quiet span in which nothing was delivered it sends a message
// or halts, or inside a promised repeat span in which every inbox
// equalled the one of the template it sends anything but what it sent
// in the template, or halts. The template is the last round in which
// some machine of the system sent — the round before, or the last one
// before a run of rounds silent for every machine, which a fast-forward
// would have passed as quiet.
type Auditor struct {
	m   sim.Sleeper
	sys *system
	// quiet is the end of the quiet promise in force: the machine said
	// it stays silent in rounds < quiet unless something is delivered.
	quiet int
	// repeat is the end of the repeat promise in force: while every
	// inbox equals in, the machine sends out in rounds < repeat. lastIn
	// and lastOut are the inbox and outbox of the machine's last round,
	// tmplIn and tmplOut those of the system's last round with traffic.
	repeat          int
	in, out         []envelope
	lastIn, lastOut []envelope
	tmplIn, tmplOut []envelope
	round           int
	err             error
}

// system is the traffic record the Auditors of one Hide share. The
// sequential engine runs every Send of a round before its Delivers, so
// by the first Send of round r the record knows whether r−1 had traffic.
type system struct {
	round int  // the round whose Sends are being recorded
	loud  bool // some machine sent in round
	last  int  // the last round before round in which some machine sent, or −1
}

// enter moves the record on to round.
func (s *system) enter(round int) {
	if round != s.round {
		if s.loud {
			s.last = s.round
		}
		s.round, s.loud = round, false
	}
}

// envelope is an Envelope compared by identity: the payload's box words
// (type and data), never its value.
type envelope struct {
	from, to sim.NodeID
	box      [2]uintptr
}

// box returns a payload's interface words: its type and data pointer.
func box(p sim.Payload) [2]uintptr { return *(*[2]uintptr)(unsafe.Pointer(&p)) }

func record(dst []envelope, envs []sim.Envelope) []envelope {
	dst = dst[:0]
	for _, env := range envs {
		dst = append(dst, envelope{env.From, env.To, box(env.Payload)})
	}
	return dst
}

func same(recorded []envelope, envs []sim.Envelope) bool {
	if len(recorded) != len(envs) {
		return false
	}
	for i, env := range envs {
		if recorded[i] != (envelope{env.From, env.To, box(env.Payload)}) {
			return false
		}
	}
	return true
}

// Hide wraps every machine in an Auditor. All of them must be Sleepers,
// and the run must be on the sequential engine: the Auditors share a
// record of the system's traffic. The returned check reports the first
// broken promise, lowest node first; call it after the run.
func Hide(ps []sim.Protocol) (hidden []sim.Protocol, check func() error) {
	hidden = make([]sim.Protocol, len(ps))
	auditors := make([]*Auditor, len(ps))
	sys := &system{round: -1, last: -1}
	for i, p := range ps {
		auditors[i] = &Auditor{m: p.(sim.Sleeper), sys: sys, round: -1}
		hidden[i] = auditors[i]
	}
	return hidden, func() error {
		for i, a := range auditors {
			if a.err != nil {
				return fmt.Errorf("node %d: %w", i, a.err)
			}
		}
		return nil
	}
}

// Send implements sim.Protocol.
func (a *Auditor) Send(round int) []sim.Envelope {
	a.sys.enter(round)
	// Every round executes, so the machine ran the system's last round
	// with traffic; if that was its previous round, it is the template.
	if last := a.sys.last; last >= 0 && last == a.round {
		a.tmplIn, a.lastIn = a.lastIn, a.tmplIn
		a.tmplOut, a.lastOut = a.lastOut, a.tmplOut
	}
	a.round = round
	// A later, shorter answer does not take back an earlier promise.
	a.quiet = max(a.quiet, a.m.QuietUntil(round))
	if last := a.sys.last; last >= 0 {
		if w := a.m.RepeatUntil(round, last); w > round {
			if round >= a.repeat {
				a.in, a.out = append(a.in[:0], a.tmplIn...), append(a.out[:0], a.tmplOut...)
			}
			a.repeat = max(a.repeat, w)
		}
	}
	out := a.m.Send(round)
	if len(out) > 0 {
		a.sys.loud = true
	}
	if len(out) > 0 && round < a.quiet && a.err == nil {
		a.err = fmt.Errorf("sent %d messages in round %d after promising quiet until %d", len(out), round, a.quiet)
	}
	if round < a.repeat && !same(a.out, out) && a.err == nil {
		a.err = fmt.Errorf("sent %d messages in round %d, not the %d it promised to repeat until %d", len(out), round, len(a.out), a.repeat)
	}
	a.lastOut = record(a.lastOut, out)
	return out
}

// Deliver implements sim.Protocol. A delivery releases the machine from
// its quiet promise, and an inbox other than the template's from its
// repeat promise, for this round's Halted and for every later round.
func (a *Auditor) Deliver(round int, inbox []sim.Envelope) {
	if len(inbox) > 0 {
		a.quiet = round
	}
	if round < a.repeat && !same(a.in, inbox) {
		a.repeat = round
	}
	a.lastIn = record(a.lastIn, inbox)
	a.m.Deliver(round, inbox)
}

// Halted implements sim.Protocol.
func (a *Auditor) Halted() bool {
	halted := a.m.Halted()
	if halted && a.round < a.quiet && a.err == nil {
		a.err = fmt.Errorf("halted in round %d after promising quiet until %d", a.round, a.quiet)
	}
	if halted && a.round < a.repeat && a.err == nil {
		a.err = fmt.Errorf("halted in round %d after promising to repeat until %d", a.round, a.repeat)
	}
	return halted
}

// EventLog is a sim.Observer that keeps a run's events, in order, in a
// form two runs can be compared by. A payload is logged by value — its
// type, its size and a Digest of everything it points to — never by
// address, so two identical runs log identical streams even when their
// payloads are pointers.
type EventLog struct {
	Events []Event
	// last is the previous message's payload box and digest: one
	// sender's outbox is logged in one go, and a run of one boxed
	// payload in it — a fan-out — is digested once.
	last   [2]uintptr
	digest uint64
}

// Event is one logged engine event. Kind is 'm' (message), 'c' (crash)
// or 'h' (halt); To, Bits (the payload's size) and Digest (its type and
// contents) are set for messages only.
type Event struct {
	Kind            byte
	Round, From, To int32
	Bits            int32
	Digest          uint64
}

// OnMessage implements sim.Observer.
func (l *EventLog) OnMessage(round int, env sim.Envelope) {
	e := Event{Kind: 'm', Round: int32(round), From: int32(env.From), To: int32(env.To), Bits: int32(env.Payload.SizeBits())}
	n := len(l.Events)
	if b := box(env.Payload); n == 0 || l.Events[n-1].Kind != 'm' ||
		l.Events[n-1].Round != e.Round || l.Events[n-1].From != e.From || b != l.last {
		l.last, l.digest = b, Digest(env.Payload)
	}
	e.Digest = l.digest
	l.Events = append(l.Events, e)
}

// OnCrash implements sim.Observer.
func (l *EventLog) OnCrash(round int, node sim.NodeID) {
	l.Events = append(l.Events, Event{Kind: 'c', Round: int32(round), From: int32(node)})
}

// OnHalt implements sim.Observer.
func (l *EventLog) OnHalt(round int, node sim.NodeID) {
	l.Events = append(l.Events, Event{Kind: 'h', Round: int32(round), From: int32(node)})
}

// Digest returns a hash of v's dynamic type and its contents —
// booleans, integers, strings, and what pointers, interfaces, structs,
// slices and arrays hold — never of an address. Pointer chains deeper
// than a few levels stop there; other kinds hash as their kind alone.
func Digest(v any) uint64 {
	d := digest(14695981039346656037)
	d.bytes([]byte(fmt.Sprintf("%T", v)))
	d.value(reflect.ValueOf(v), 0)
	return uint64(d)
}

type digest uint64

// word and bytes mix a word at a time, FNV-1a's step over 64-bit words.
func (d *digest) word(x uint64) { *d = (*d ^ digest(x)) * 1099511628211 }

func (d *digest) bytes(b []byte) {
	for ; len(b) >= 8; b = b[8:] {
		d.word(binary.LittleEndian.Uint64(b))
	}
	for _, c := range b {
		d.word(uint64(c))
	}
}

func (d *digest) value(v reflect.Value, depth int) {
	if !v.IsValid() {
		d.word(0)
		return
	}
	d.word(uint64(v.Kind()))
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			d.word(1)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		d.word(v.Uint())
	case reflect.String:
		d.bytes([]byte(v.String()))
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() || depth >= 8 {
			d.word(0)
			return
		}
		d.value(v.Elem(), depth+1)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			d.value(v.Field(i), depth)
		}
	case reflect.Slice, reflect.Array:
		d.word(uint64(v.Len()))
		if v.Kind() == reflect.Slice && v.Len() > 0 && plain(v.Type().Elem().Kind()) {
			d.bytes(unsafe.Slice((*byte)(v.UnsafePointer()), v.Len()*int(v.Type().Elem().Size())))
			return
		}
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i), depth)
		}
	}
}

// plain reports whether values of kind k are booleans or integers,
// whose memory is their value.
func plain(k reflect.Kind) bool {
	return k >= reflect.Bool && k <= reflect.Uint64 && k != reflect.Uintptr
}
