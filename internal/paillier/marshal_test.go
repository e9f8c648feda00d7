package paillier

import (
	"errors"
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
	if mpint.Cmp(sk2.Lambda, sk.Lambda) != 0 {
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

// TestUnmarshalRejectsOtherGenerators: both decoders take g = n+1 and nothing
// else — not g = 1 (every "encryption" under it is rⁿ and carries no
// plaintext), not a neighbour of n+1, not the top of the range, not a
// generator of the right order that the code simply cannot encrypt under —
// typed, with a nil key.
func TestUnmarshalRejectsOtherGenerators(t *testing.T) {
	sk := testKey(t)
	for name, g := range map[string]mpint.Nat{
		"1":    mpint.One(),
		"n":    sk.N,
		"n+2":  mpint.AddWord(sk.N, 2),
		"n²−1": mpint.SubWord(sk.N2, 1),
		"2n+1": mpint.AddWord(mpint.Add(sk.N, sk.N), 1), // order n, as n+1 has: a valid textbook g
	} {
		pub := appendNat(appendNat([]byte{publicKeyMagic}, sk.N), g)
		if pk, err := UnmarshalPublicKey(pub); !errors.Is(err, ErrGenerator) || pk != nil {
			t.Errorf("public key with g = %s: (%v, %v), want ErrGenerator", name, pk, err)
		}
		priv := appendNat(appendNat(appendNat([]byte{privateKeyMagic}, sk.P), sk.Q), g)
		if sk2, err := UnmarshalPrivateKey(priv); !errors.Is(err, ErrGenerator) || sk2 != nil {
			t.Errorf("private key with g = %s: (%v, %v), want ErrGenerator", name, sk2, err)
		}
	}
	// What the random-g key generator (seed 3, 64 bits) marshalled to at commit
	// 70d9887, the last to have one (g of order a multiple of n): both decoders
	// took these then. They are in FuzzUnmarshalKeys' corpus too.
	const g = "\x10\x00\x00\x00\x92\xc6\x82\x70\x83\x33\xd2\x91\x7b\xf8\x29\xe8\xd1\x99\xe2\x7d"
	if pk, err := UnmarshalPublicKey([]byte("P\x08\x00\x00\x00\xc2\x1f\x8c\x86\xd5\xca\x0b\x2b" + g)); !errors.Is(err, ErrGenerator) || pk != nil {
		t.Errorf("recorded classic public key: (%v, %v), want ErrGenerator", pk, err)
	}
	if sk2, err := UnmarshalPrivateKey([]byte("S\x04\x00\x00\x00\xe2\xfa\xff\x3f\x04\x00\x00\x00\xda\xf1\x25\x15" + g)); !errors.Is(err, ErrGenerator) || sk2 != nil {
		t.Errorf("recorded classic private key: (%v, %v), want ErrGenerator", sk2, err)
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
// panic; a reject is an error with a nil key; an accepted key has g = n+1 and
// survives marshal → unmarshal with the same components (the bytes themselves
// need not: leading zeros in a value decode and re-encode without them).
func FuzzUnmarshalKeys(f *testing.F) {
	sk, err := CPUBackend{}.GenerateKey(mpint.NewRNG(11), 64)
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
			if mpint.Cmp(pk.G, mpint.AddWord(pk.N, 1)) != 0 {
				t.Fatalf("public key accepted with n=%s g=%s", pk.N, pk.G)
			}
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
			if mpint.Cmp(sk.G, mpint.AddWord(sk.N, 1)) != 0 {
				t.Fatalf("private key accepted with n=%s g=%s", sk.N, sk.G)
			}
			enc, _ := sk.MarshalBinary()
			again, err := UnmarshalPrivateKey(enc)
			if err != nil || mpint.Cmp(again.P, sk.P) != 0 || mpint.Cmp(again.Q, sk.Q) != 0 ||
				mpint.Cmp(again.N, sk.N) != 0 || mpint.Cmp(again.G, sk.G) != 0 {
				t.Fatalf("private key p=%s q=%s g=%s re-decodes to %+v (%v)", sk.P, sk.Q, sk.G, again, err)
			}
		}
	})
}
