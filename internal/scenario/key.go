package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"math"
)

// keyVersion is hashed into every fingerprint so the key format can
// evolve without old and new keys ever colliding. Bump it whenever the
// encoding below changes.
const keyVersion = "lineartime/spec-key/v1"

// Key returns the canonical content-address of the spec: a stable
// fingerprint of every run-determining dimension — problem × algorithm
// × fault model × port model × topology (seed, degree) × size × round
// budget × inputs. Because a run is a pure function of these fields, two
// Specs with equal keys produce identical Reports, which is what makes
// a key-addressed result cache provably correct.
func (sp Spec) Key() string {
	h := sha256.New()
	io.WriteString(h, keyVersion)
	hashString(h, sp.Name)
	hashInts(h, int64(sp.Problem), int64(sp.Port), int64(sp.N), int64(sp.T), int64(sp.Degree), int64(sp.RoundSlack))
	hashString(h, string(sp.Algorithm))
	hashUint(h, sp.Seed)
	sp.Fault.hashInto(h)
	hashInts(h, int64(len(sp.BoolInputs)))
	for _, b := range sp.BoolInputs {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	hashInts(h, int64(len(sp.Rumors)))
	for _, r := range sp.Rumors {
		hashUint(h, r)
	}
	hashInts(h, int64(len(sp.Values)))
	for _, v := range sp.Values {
		hashUint(h, v)
	}
	return "k1:" + hex.EncodeToString(h.Sum(nil))
}

// hashInto feeds every fault-model field into the fingerprint in a
// fixed order.
func (f FaultModel) hashInto(h hash.Hash) {
	hashInts(h, int64(f.Kind), int64(len(f.Schedule)))
	for _, e := range f.Schedule {
		hashInts(h, int64(e.Node), int64(e.Round), int64(e.Keep))
	}
	hashInts(h, int64(f.Count), int64(f.Horizon), int64(f.Keep), int64(f.Pool))
	hashUint(h, f.Seed)
	hashInts(h, int64(f.Strategy), int64(len(f.Corrupted)))
	for _, id := range f.Corrupted {
		hashInts(h, int64(id))
	}
	hashUint(h, math.Float64bits(f.Rate))
	hashInts(h, int64(f.WindowStart), int64(f.WindowEnd), int64(f.Cut), int64(f.Delay))
}

// hashString writes a length-prefixed string, so adjacent fields can
// never alias under concatenation.
func hashString(h hash.Hash, s string) {
	hashInts(h, int64(len(s)))
	io.WriteString(h, s)
}

func hashInts(h hash.Hash, vs ...int64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
}

func hashUint(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}
