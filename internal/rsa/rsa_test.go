package rsa

import (
	"testing"

	"flbooster/internal/mpint"
)

func testKey(t testing.TB) *PrivateKey {
	t.Helper()
	sk, err := GenerateKey(mpint.NewRNG(2000), 256)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

func TestKeyGeneration(t *testing.T) {
	sk := testKey(t)
	if sk.KeyBits() != 256 {
		t.Fatalf("key size = %d", sk.KeyBits())
	}
	if mpint.Cmp(mpint.Mul(sk.P, sk.Q), sk.N) != 0 {
		t.Fatal("n != p*q")
	}
	// e*d ≡ 1 mod φ(n)
	phi := mpint.Mul(mpint.SubWord(sk.P, 1), mpint.SubWord(sk.Q, 1))
	if !mpint.Mod(mpint.Mul(sk.E, sk.D), phi).IsOne() {
		t.Fatal("e*d != 1 mod phi")
	}
}

func TestGenerateKeyRejectsTinySize(t *testing.T) {
	if _, err := GenerateKey(mpint.NewRNG(1), 8); err == nil {
		t.Fatal("tiny key should be rejected")
	}
	// An odd size used to spin forever: two 16-bit primes never make 33 bits.
	if sk, err := GenerateKey(mpint.NewRNG(1), 33); err == nil || sk != nil {
		t.Fatalf("GenerateKey(33 bits) = %v, %v; want an error", sk, err)
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	sk := testKey(t)
	rng := mpint.NewRNG(1)
	for i := 0; i < 30; i++ {
		m := rng.RandBelow(sk.N)
		c, err := sk.Encrypt(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		if mpint.Cmp(got, m) != 0 {
			t.Fatalf("round trip failed for %s", m)
		}
	}
}

func TestEncryptRejectsOversized(t *testing.T) {
	sk := testKey(t)
	if _, err := sk.Encrypt(sk.N); err == nil {
		t.Fatal("m >= n should fail")
	}
}

func TestDecryptRejectsOversized(t *testing.T) {
	sk := testKey(t)
	if _, err := sk.Decrypt(Ciphertext{C: sk.N}); err == nil {
		t.Fatal("c >= n should fail")
	}
}

func TestMultiplicativeHomomorphism(t *testing.T) {
	sk := testKey(t)
	rng := mpint.NewRNG(2)
	for i := 0; i < 20; i++ {
		m1 := rng.RandBelow(sk.N)
		m2 := rng.RandBelow(sk.N)
		c1, _ := sk.Encrypt(m1)
		c2, _ := sk.Encrypt(m2)
		got, err := sk.Decrypt(sk.Mul(c1, c2))
		if err != nil {
			t.Fatal(err)
		}
		want := mpint.ModMul(m1, m2, sk.N)
		if mpint.Cmp(got, want) != 0 {
			t.Fatalf("E(m1)*E(m2) = E(%s), want E(%s)", got, want)
		}
	}
}

func TestNewKeyFromPrimesValidation(t *testing.T) {
	r := mpint.NewRNG(4)
	p := r.RandPrime(64)
	if _, err := NewKeyFromPrimes(p, p); err == nil {
		t.Fatal("p == q should be rejected")
	}
}

func TestDeterministicEncryption(t *testing.T) {
	// Textbook RSA is deterministic — what its multiplicative homomorphism
	// needs; pin it down so nobody "fixes" it with padding.
	sk := testKey(t)
	m := mpint.FromUint64(424242)
	c1, _ := sk.Encrypt(m)
	c2, _ := sk.Encrypt(m)
	if mpint.Cmp(c1.C, c2.C) != 0 {
		t.Fatal("textbook RSA must be deterministic")
	}
}

func BenchmarkDecryptCRT256(b *testing.B) {
	sk := testKey(b)
	c, _ := sk.Encrypt(mpint.NewRNG(5).RandBelow(sk.N))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Decrypt(c); err != nil {
			b.Fatal(err)
		}
	}
}
