package auth

import (
	"crypto/hmac"
	"crypto/sha256"
	"testing"
	"testing/quick"

	"lineartime/internal/rng"
)

func TestSignVerifyRoundTrip(t *testing.T) {
	a := NewAuthority(10, 1)
	msg := ValueMessage(3, 42)
	sig := a.Signer(3).Sign(msg)
	if !a.Verify(msg, sig) {
		t.Fatal("valid signature rejected")
	}
}

func TestVerifyRejectsWrongMessage(t *testing.T) {
	a := NewAuthority(10, 1)
	sig := a.Signer(3).Sign(ValueMessage(3, 42))
	if a.Verify(ValueMessage(3, 43), sig) {
		t.Fatal("signature accepted for different message")
	}
}

func TestForgeryImpossible(t *testing.T) {
	a := NewAuthority(10, 1)
	msg := ValueMessage(5, 7)
	// A Byzantine node holding only its own signer tries to claim the
	// signature came from node 5.
	forged := a.Signer(2).Sign(msg)
	forged.Signer = 5
	if a.Verify(msg, forged) {
		t.Fatal("forged signature accepted")
	}
	// A fabricated MAC must not verify either.
	var fake Signature
	fake.Signer = 5
	if a.Verify(msg, fake) {
		t.Fatal("zero MAC accepted")
	}
}

func TestVerifyRejectsUnknownSigner(t *testing.T) {
	a := NewAuthority(4, 1)
	sig := a.Signer(0).Sign([]byte("x"))
	sig.Signer = 9
	if a.Verify([]byte("x"), sig) {
		t.Fatal("out-of-range signer accepted")
	}
}

func TestSignerIDAndPanic(t *testing.T) {
	a := NewAuthority(3, 1)
	if a.Signer(2).Sign(nil).Signer != 2 {
		t.Fatal("wrong signer id")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Signer did not panic")
		}
	}()
	a.Signer(3)
}

func TestVerifyChain(t *testing.T) {
	a := NewAuthority(6, 2)
	msg := ValueMessage(0, 9)
	chain := []Signature{
		a.Signer(0).Sign(msg),
		a.Signer(1).Sign(msg),
		a.Signer(2).Sign(msg),
	}
	if !a.VerifyChain(msg, chain, 3) {
		t.Fatal("valid chain rejected")
	}
	if a.VerifyChain(msg, chain, 4) {
		t.Fatal("short chain accepted against higher requirement")
	}
	dup := append(chain[:2:2], chain[1])
	if a.VerifyChain(msg, dup, 3) {
		t.Fatal("duplicate signer accepted")
	}
	bad := append(chain[:2:2], Signature{Signer: 3})
	if a.VerifyChain(msg, bad, 3) {
		t.Fatal("invalid member accepted")
	}
	if !a.VerifyChain(msg, nil, 0) {
		t.Fatal("empty chain with zero requirement rejected")
	}
}

func TestAuthoritiesWithDifferentSeedsDiffer(t *testing.T) {
	a, b := NewAuthority(4, 1), NewAuthority(4, 2)
	msg := []byte("m")
	if b.Verify(msg, a.Signer(0).Sign(msg)) {
		t.Fatal("cross-authority signature accepted")
	}
}

func TestCanonicalEncodingsInjective(t *testing.T) {
	prop := func(s1, s2 uint16, v1, v2 uint64) bool {
		m1 := ValueMessage(int(s1), v1)
		m2 := ValueMessage(int(s2), v2)
		same := s1 == s2 && v1 == v2
		return same == (string(m1) == string(m2))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetMessageDistinguishesNullFromZero(t *testing.T) {
	a := SetMessage([]uint64{0, 5}, []bool{true, true})
	b := SetMessage([]uint64{0, 5}, []bool{false, true})
	if string(a) == string(b) {
		t.Fatal("null and zero encode identically")
	}
	// Absent entries ignore the carried value.
	c := SetMessage([]uint64{99, 5}, []bool{false, true})
	if string(b) != string(c) {
		t.Fatal("absent entry value leaked into encoding")
	}
}

// TestKeyedMACsMatchFreshHMAC: the keyed HMAC an Authority keeps per
// signer and resets per MAC gives every signature a fresh
// hmac.New(sha256.New, key) gives. Signers interleave at random, so a
// MAC follows one of another signer or of the same signer over another
// message; keys are the derived 32-byte ones and random ones of every
// length up to two SHA-256 blocks (an HMAC hashes a key longer than a
// block first), messages random ones of up to three blocks, the empty
// one among them.
func TestKeyedMACsMatchFreshHMAC(t *testing.T) {
	r := rng.New(0x4ac_0001)
	randomBytes := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Uint64())
		}
		return b
	}
	for trial := 0; trial < 8; trial++ {
		n := 1 + r.Intn(12)
		a := NewAuthority(n, r.Uint64())
		if trial%2 == 1 {
			for id := range a.keys {
				a.keys[id] = randomBytes(r.Intn(2*sha256.BlockSize + 1))
			}
		}
		for k := 0; k < 400; k++ {
			id := r.Intn(n)
			msg := randomBytes(r.Intn(3*sha256.BlockSize + 1))
			ref := hmac.New(sha256.New, a.keys[id])
			ref.Write(msg)
			want := ref.Sum(nil)
			sig := a.Signer(id).Sign(msg)
			if !hmac.Equal(sig.MAC[:], want) {
				t.Fatalf("trial %d, MAC %d: signer %d over %d bytes gives %x, a fresh HMAC %x", trial, k, id, len(msg), sig.MAC, want)
			}
			var fresh Signature
			fresh.Signer = id
			copy(fresh.MAC[:], want)
			if !a.Verify(msg, fresh) {
				t.Fatalf("trial %d, MAC %d: a fresh HMAC's signature of signer %d does not verify", trial, k, id)
			}
		}
	}
}
