package paillier

import (
	"testing"

	"flbooster/internal/mpint"
)

// TestHolderHandleSameBits: at every key size the suite uses the owner's
// handle produces what the shareable key produces — the rⁿ term itself (the
// encryption of 0) against the n² window, a ciphertext under a chosen nonce —
// and decrypts back.
func TestHolderHandleSameBits(t *testing.T) {
	keys := map[string]*PrivateKey{}
	for _, bits := range []int{128, 256, 512, 1024} {
		keys[mpint.FromUint64(uint64(bits)).String()] = keyOfSize(t, bits)
	}
	for name, sk := range keys {
		pk, own := &sk.PublicKey, sk.Holder()
		if pk.own != nil || own.own == nil {
			t.Fatalf("%s: the factorisation sits on the wrong handle", name)
		}
		rng := mpint.NewRNG(7)
		for i := 0; i < 20; i++ {
			r, m := rng.RandCoprime(sk.N), rng.RandBelow(sk.N)
			want := pk.MontN2().Exp(r, sk.N)
			if got, _ := own.EncryptWithNonce(nil, r); mpint.Cmp(got.C, want) != 0 {
				t.Fatalf("%s: holder r^n = %s, n² window says %s", name, got.C, want)
			}
			if got, _ := pk.EncryptWithNonce(nil, r); mpint.Cmp(got.C, want) != 0 {
				t.Fatalf("%s: public r^n = %s, n² window says %s", name, got.C, want)
			}
			a, errA := pk.EncryptWithNonce(m, r)
			b, errB := own.EncryptWithNonce(m, r)
			if errA != nil || errB != nil || mpint.Cmp(a.C, b.C) != 0 {
				t.Fatalf("%s: ciphertexts differ between handles (%v, %v)", name, errA, errB)
			}
			if got, err := sk.Decrypt(b); err != nil || mpint.Cmp(got, m) != 0 {
				t.Fatalf("%s: holder ciphertext decrypts to %s (%v), want %s", name, got, err, m)
			}
		}
	}
}

// TestHolderHandleStaysPrivate: nothing that leaves the process carries the
// factorisation — the marshalled public key of either handle is the same
// bytes and loads without it — and a reloaded private key has its own.
func TestHolderHandleStaysPrivate(t *testing.T) {
	sk := testKey(t)
	pub, err := sk.PublicKey.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	own, err := sk.Holder().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(pub) != string(own) {
		t.Fatal("the two handles marshal differently")
	}
	back, err := UnmarshalPublicKey(own)
	if err != nil {
		t.Fatal(err)
	}
	if back.own != nil {
		t.Fatal("an unmarshalled public key carries a factorisation")
	}
	raw, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sk2, err := UnmarshalPrivateKey(raw)
	if err != nil {
		t.Fatal(err)
	}
	r := mpint.NewRNG(3).RandCoprime(sk.N)
	reloaded, _ := sk2.Holder().EncryptWithNonce(nil, r)
	public, _ := sk.PublicKey.EncryptWithNonce(nil, r)
	if mpint.Cmp(reloaded.C, public.C) != 0 {
		t.Fatal("a reloaded key's holder handle computes a different r^n")
	}
}
