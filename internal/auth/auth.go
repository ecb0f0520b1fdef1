// Package auth simulates the authentication assumption of the
// authenticated Byzantine model (§7): every node can sign messages,
// everyone can verify every signature, and no node can forge another
// node's signature.
//
// Realization: an Authority holds one HMAC-SHA256 key per node
// (standing in for a PKI). Signing is only reachable through a node's
// own Signer handle, so a Byzantine protocol — which is handed just
// its own Signer — cannot mint signatures for other identities; the
// abstract no-forgery guarantee becomes a property of the object
// graph, while verification still checks real MAC bytes, so the
// Dolev–Strong signature chains are actually validated, not assumed.
package auth

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"

	"lineartime/internal/rng"
)

// SignatureBits is the wire size charged per signature: a 256-bit MAC
// plus a 16-bit signer name.
const SignatureBits = 256 + 16

// Signature is a node's signature over a message.
type Signature struct {
	Signer int
	MAC    [sha256.Size]byte
}

// Authority holds the key material for one simulated system. It plays
// the role of the PKI: all verification goes through it. An Authority
// belongs to one run: it keeps one keyed HMAC per signer and resets it
// for every MAC, and scratch for MACs and chain checks, so it must not
// sign or verify from two goroutines at once.
type Authority struct {
	keys [][]byte
	macs []hash.Hash // signer id → its keyed HMAC, built on first use
	sum  [sha256.Size]byte
	// seen[id] == chains marks a signer of the chain VerifyChain is
	// checking, the chains-th it has checked.
	seen   []uint64
	chains uint64
}

// NewAuthority creates key material for n nodes, derived
// deterministically from seed.
func NewAuthority(n int, seed uint64) *Authority {
	r := rng.New(seed ^ 0x5175_e1f5_a11c_e5)
	keys := make([][]byte, n)
	for i := range keys {
		k := make([]byte, 32)
		for j := 0; j < 32; j += 8 {
			binary.LittleEndian.PutUint64(k[j:], r.Uint64())
		}
		keys[i] = k
	}
	return &Authority{keys: keys, macs: make([]hash.Hash, n), seen: make([]uint64, n)}
}

// N returns the number of identities.
func (a *Authority) N() int { return len(a.keys) }

// Signer returns node id's signing handle. Protocols must receive only
// their own node's Signer.
func (a *Authority) Signer(id int) *Signer {
	if id < 0 || id >= len(a.keys) {
		panic("auth: signer id out of range")
	}
	return &Signer{authority: a, id: id}
}

// Verify reports whether sig is signer's valid signature over msg.
func (a *Authority) Verify(msg []byte, sig Signature) bool {
	if sig.Signer < 0 || sig.Signer >= len(a.keys) {
		return false
	}
	mac := a.mac(sig.Signer, msg)
	return hmac.Equal(mac[:], sig.MAC[:])
}

// VerifyChain reports whether every signature in the chain is valid
// over msg, all signers are distinct, and (if required ≥ 0) the chain
// has at least `required` signatures.
func (a *Authority) VerifyChain(msg []byte, chain []Signature, required int) bool {
	if required >= 0 && len(chain) < required {
		return false
	}
	a.chains++
	for _, sig := range chain {
		if !a.Verify(msg, sig) || a.seen[sig.Signer] == a.chains {
			return false
		}
		a.seen[sig.Signer] = a.chains
	}
	return true
}

// mac returns signer id's HMAC-SHA256 over msg. The signer's keyed
// HMAC is built once and Reset per MAC, which gives the same MAC as a
// fresh hmac.New without rehashing the key; it sums into the
// Authority's scratch, so the result does not escape to the heap.
func (a *Authority) mac(id int, msg []byte) [sha256.Size]byte {
	h := a.macs[id]
	if h == nil {
		h = hmac.New(sha256.New, a.keys[id])
		a.macs[id] = h
	} else {
		h.Reset()
	}
	h.Write(msg)
	h.Sum(a.sum[:0])
	return a.sum
}

// Signer signs messages as one fixed identity.
type Signer struct {
	authority *Authority
	id        int
}

// Sign produces the identity's signature over msg.
func (s *Signer) Sign(msg []byte) Signature {
	return Signature{Signer: s.id, MAC: s.authority.mac(s.id, msg)}
}

// ValueMessage canonically encodes the (source, value) pair that
// Dolev–Strong signature chains cover.
func ValueMessage(source int, value uint64) []byte {
	buf := make([]byte, 12)
	binary.LittleEndian.PutUint32(buf, uint32(source))
	binary.LittleEndian.PutUint64(buf[4:], value)
	return buf
}

// SetMessage canonically encodes an authenticated common set of values
// for the endorsement signatures of AB-Consensus: the per-source
// values with presence flags (null values encoded as absent).
func SetMessage(values []uint64, present []bool) []byte {
	buf := make([]byte, 0, 9*len(values))
	for i, v := range values {
		if present[i] {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
			v = 0
		}
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	return buf
}

// InquiryMessage canonically encodes a Part 4 authenticated inquiry.
func InquiryMessage(from int) []byte {
	buf := make([]byte, 4)
	binary.LittleEndian.PutUint32(buf, uint32(from))
	return buf
}
