package sim

import (
	"fmt"
	"unsafe"
)

// The paper's crash-model algorithms use messages whose role is
// determined by the round in which they are sent, so a single bit of
// content suffices (§4 intro). These payload types implement that
// accounting; set-valued and authenticated payloads live with the
// protocols that use them.

// Bit is a one-bit rumor or decision value.
type Bit bool

// SizeBits implements Payload: one bit on the wire.
func (Bit) SizeBits() int { return 1 }

// Inquiry asks the recipient whether it has decided (Part 3 of
// Many-Crashes-Consensus, Part 2 of Spread-Common-Value). Its role is
// fixed by the round, so it also costs one bit.
type Inquiry struct{}

// SizeBits implements Payload.
func (Inquiry) SizeBits() int { return 1 }

// Probe is a local-probing keep-alive carrying the sender's current
// rumor (Part 2 of the agreement algorithms). One bit.
type Probe struct {
	Rumor Bit
}

// SizeBits implements Payload.
func (Probe) SizeBits() int { return 1 }

var (
	_ Payload = Bit(false)
	_ Payload = Inquiry{}
	_ Payload = Probe{}
)

// scan checks one sender's outbox and returns its size in bits, in one
// walk: every envelope must carry the sender's id, a valid receiver
// other than the sender and a payload, and a single-port sender sends at
// most one. When counts is non-nil it also counts the envelopes per
// destination. A run of consecutive envelopes that carry one boxed
// payload — what Outbox.FanOut produces, and every run of one of the
// one-bit payloads above, whose equal values share the runtime's static
// boxes — costs one SizeBits call.
func (s *state) scan(id NodeID, out []Envelope, counts []int32) (int64, error) {
	if s.cfg.SinglePort && len(out) > 1 {
		return 0, fmt.Errorf("sim: node %d sent %d messages in single-port round", id, len(out))
	}
	var bits, b int64
	var box Payload
	for i := range out {
		env := &out[i]
		switch {
		case env.From != id:
			return 0, fmt.Errorf("sim: node %d forged sender %d", id, env.From)
		case env.To < 0 || env.To >= s.n:
			return 0, fmt.Errorf("sim: node %d addressed invalid node %d", id, env.To)
		case env.To == id:
			return 0, fmt.Errorf("sim: node %d sent to itself", id)
		case env.Payload == nil:
			return 0, fmt.Errorf("sim: node %d sent nil payload", id)
		}
		if !sameBox(env.Payload, box) {
			box = env.Payload
			b = int64(box.SizeBits())
		}
		if counts != nil {
			counts[env.To]++
		}
		bits += b
	}
	return bits, nil
}

// recount corrects what scan counted over out, which it sized as bits,
// to what the node-level fault delivers, and returns deliver's size: a
// crash's keep prefix uncounts the suffix, and any other result uncounts
// out and counts deliver.
func recount(counts []int32, out, deliver []Envelope, bits int64) int64 {
	switch {
	case len(deliver) == len(out) && (len(out) == 0 || &deliver[0] == &out[0]):
		return bits
	case len(deliver) < len(out) && (len(deliver) == 0 || &deliver[0] == &out[0]):
		return bits - sizeRuns(counts, out[len(deliver):], -1)
	}
	sizeRuns(counts, out, -1)
	return sizeRuns(counts, deliver, 1)
}

// sizeRuns returns the size in bits of envs, one SizeBits call per run of
// one boxed payload, and adds step to counts[To] for each when counts is
// non-nil.
func sizeRuns(counts []int32, envs []Envelope, step int32) int64 {
	var bits, b int64
	var box Payload
	for i := range envs {
		if p := envs[i].Payload; !sameBox(p, box) {
			box = p
			b = int64(p.SizeBits())
		}
		if counts != nil {
			counts[envs[i].To] += step
		}
		bits += b
	}
	return bits
}

// sameBox reports whether two payloads are one boxed value: same type and
// data words. Never ==, which compares field by field and panics on a slice.
func sameBox(a, b Payload) bool {
	return *(*[2]uintptr)(unsafe.Pointer(&a)) == *(*[2]uintptr)(unsafe.Pointer(&b))
}
