package sim

import "unsafe"

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

// sizeRuns returns the size in bits of one sender's envelopes and, when
// counts is non-nil, counts them per destination. A run of consecutive
// envelopes that carry one boxed payload — what Outbox.FanOut produces,
// and every run of one of the one-bit payloads above, whose equal values
// share the runtime's static boxes — costs one SizeBits call.
func sizeRuns(counts []int32, envs []Envelope) int64 {
	var bits int64
	for i := 0; i < len(envs); {
		p := envs[i].Payload
		b := int64(p.SizeBits())
		for ; i < len(envs) && sameBox(envs[i].Payload, p); i++ {
			if counts != nil {
				counts[envs[i].To]++
			}
			bits += b
		}
	}
	return bits
}

// sameBox reports whether two payloads are one boxed value: same type and
// data words. Never ==, which compares field by field and panics on a slice.
func sameBox(a, b Payload) bool {
	return *(*[2]uintptr)(unsafe.Pointer(&a)) == *(*[2]uintptr)(unsafe.Pointer(&b))
}
