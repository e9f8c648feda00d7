package paillier

import (
	"testing"

	"flbooster/internal/mpint"
)

func TestPublicKeyRoundTrip(t *testing.T) {
	sk := testKey(t)
	data, err := sk.PublicKey.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	pk, err := UnmarshalPublicKey(data)
	if err != nil {
		t.Fatal(err)
	}
	if mpint.Cmp(pk.N, sk.N) != 0 || mpint.Cmp(pk.G, sk.G) != 0 {
		t.Fatal("components diverged")
	}
	if !pk.plusOne {
		t.Fatal("n+1 fast path not restored")
	}
	// The decoded key must encrypt values the original key decrypts.
	rng := mpint.NewRNG(1)
	m := mpint.FromUint64(31337)
	c, err := pk.Encrypt(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(c)
	if err != nil {
		t.Fatal(err)
	}
	if mpint.Cmp(got, m) != 0 {
		t.Fatal("cross-key round trip failed")
	}
}

func TestPrivateKeyRoundTrip(t *testing.T) {
	sk := testKey(t)
	data, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sk2, err := UnmarshalPrivateKey(data)
	if err != nil {
		t.Fatal(err)
	}
	if mpint.Cmp(sk2.Lambda, sk.Lambda) != 0 || mpint.Cmp(sk2.Mu, sk.Mu) != 0 {
		t.Fatal("derived components diverged after re-derivation")
	}
	rng := mpint.NewRNG(2)
	m := mpint.FromUint64(987654321)
	c, err := sk.Encrypt(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk2.Decrypt(c)
	if err != nil {
		t.Fatal(err)
	}
	if mpint.Cmp(got, m) != 0 {
		t.Fatal("decoded private key cannot decrypt")
	}
}

func TestClassicKeyMarshalRoundTrip(t *testing.T) {
	sk, err := GenerateKeyClassic(mpint.NewRNG(3), 128)
	if err != nil {
		t.Fatal(err)
	}
	data, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sk2, err := UnmarshalPrivateKey(data)
	if err != nil {
		t.Fatal(err)
	}
	if sk2.plusOne {
		t.Fatal("classic g must not restore as n+1")
	}
	rng := mpint.NewRNG(4)
	m := mpint.FromUint64(55)
	c, err := sk2.Encrypt(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(c)
	if err != nil {
		t.Fatal(err)
	}
	if mpint.Cmp(got, m) != 0 {
		t.Fatal("classic-key round trip failed")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	sk := testKey(t)
	pub, _ := sk.PublicKey.MarshalBinary()
	priv, _ := sk.MarshalBinary()
	cases := [][]byte{
		nil,
		{0x00},
		pub[:3],                      // truncated
		append(pub, 0xFF),            // trailing garbage
		priv[:5],                     // truncated private
		append(priv, 0x01),           // trailing garbage
		{publicKeyMagic, 1, 0, 0, 0}, // body shorter than prefix
	}
	for i, data := range cases {
		if _, err := UnmarshalPublicKey(data); err == nil {
			if _, err2 := UnmarshalPrivateKey(data); err2 == nil {
				t.Errorf("case %d decoded as something", i)
			}
		}
	}
	// Swapped magic bytes must be rejected.
	if _, err := UnmarshalPublicKey(priv); err == nil {
		t.Error("private encoding accepted as public key")
	}
	if _, err := UnmarshalPrivateKey(pub); err == nil {
		t.Error("public encoding accepted as private key")
	}
}

// FuzzUnmarshalKeys feeds arbitrary bytes to both key decoders. Neither may
// panic; a reject is an error with a nil key; an accepted key survives
// marshal → unmarshal with the same components (the bytes themselves need
// not: leading zeros in a value decode and re-encode without them).
func FuzzUnmarshalKeys(f *testing.F) {
	sk, err := GenerateKey(mpint.NewRNG(11), 64)
	if err != nil {
		f.Fatal(err)
	}
	pub, _ := sk.PublicKey.MarshalBinary()
	priv, _ := sk.MarshalBinary()
	f.Add(pub)
	f.Add(priv)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return // rebuilding a key's contexts is cubic in its length
		}
		if pk, err := UnmarshalPublicKey(data); err != nil {
			if pk != nil {
				t.Fatalf("public reject (%v) still returned a key", err)
			}
		} else {
			enc, _ := pk.MarshalBinary()
			again, err := UnmarshalPublicKey(enc)
			if err != nil || mpint.Cmp(again.N, pk.N) != 0 || mpint.Cmp(again.G, pk.G) != 0 {
				t.Fatalf("public key n=%s g=%s re-decodes to %+v (%v)", pk.N, pk.G, again, err)
			}
		}
		if sk, err := UnmarshalPrivateKey(data); err != nil {
			if sk != nil {
				t.Fatalf("private reject (%v) still returned a key", err)
			}
		} else {
			enc, _ := sk.MarshalBinary()
			again, err := UnmarshalPrivateKey(enc)
			if err != nil || mpint.Cmp(again.P, sk.P) != 0 || mpint.Cmp(again.Q, sk.Q) != 0 ||
				mpint.Cmp(again.N, sk.N) != 0 || mpint.Cmp(again.G, sk.G) != 0 {
				t.Fatalf("private key p=%s q=%s g=%s re-decodes to %+v (%v)", sk.P, sk.Q, sk.G, again, err)
			}
		}
	})
}
