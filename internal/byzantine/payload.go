package byzantine

import (
	"lineartime/internal/auth"
	"lineartime/internal/sim"
)

// Relay is one Dolev–Strong item: a source's value with its signature
// chain. The first chain entry must be the source's own signature.
type Relay struct {
	Source int
	Value  uint64
	Chain  []auth.Signature
}

// RelayBatch combines the parallel DS executions' items that share a
// (sender, receiver, round) into one message (§7 Part 1: "messages
// could be combined").
type RelayBatch struct {
	Items []Relay
}

// SizeBits implements sim.Payload.
func (b RelayBatch) SizeBits() int {
	bits := 0
	for _, it := range b.Items {
		bits += 16 + 64 + auth.SignatureBits*len(it.Chain)
	}
	if bits == 0 {
		bits = 1
	}
	return bits
}

// Endorsement carries one little node's signature over its final
// common set (the concretization of the paper's "each value
// authenticated by ≥ 4t little nodes' valid signatures": after
// Dolev–Strong agreement the little nodes co-sign the whole set once).
type Endorsement struct {
	Sig auth.Signature
}

// SizeBits implements sim.Payload.
func (Endorsement) SizeBits() int { return auth.SignatureBits }

// CommonSet is an authenticated common set of values: per-source
// values (Present[i] false encodes null) plus the little-node
// endorsement signatures that authenticate it.
type CommonSet struct {
	Values       []uint64
	Present      []bool
	Endorsements []auth.Signature
}

// SizeBits implements sim.Payload.
func (s CommonSet) SizeBits() int {
	return len(s.Values)*(64+1) + auth.SignatureBits*len(s.Endorsements)
}

// Clone returns a deep copy (receivers keep adopted sets immutable, so
// clones happen only on adoption).
func (s CommonSet) Clone() CommonSet {
	return CommonSet{
		Values:       append([]uint64(nil), s.Values...),
		Present:      append([]bool(nil), s.Present...),
		Endorsements: append([]auth.Signature(nil), s.Endorsements...),
	}
}

// SignedInquiry is a Part 4 inquiry authenticated by the inquirer.
type SignedInquiry struct {
	Sig auth.Signature
}

// SizeBits implements sim.Payload.
func (SignedInquiry) SizeBits() int { return auth.SignatureBits }

var (
	_ sim.Payload = RelayBatch{}
	_ sim.Payload = Endorsement{}
	_ sim.Payload = CommonSet{}
	_ sim.Payload = SignedInquiry{}
)

// validCommonSet checks a received set against the configuration: the
// shape matches L sources and it carries ≥ Endorsements valid,
// distinct little-node signatures over its canonical encoding.
func (c *Config) validCommonSet(s CommonSet) bool {
	if len(s.Values) != c.L || len(s.Present) != c.L {
		return false
	}
	return c.littleChain(auth.SetMessage(s.Values, s.Present), s.Endorsements, c.Endorsements)
}
