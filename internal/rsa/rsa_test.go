package rsa

import (
	"testing"

	"flbooster/internal/mpint"
)

func TestKeyGeneration(t *testing.T) {
	sk, err := GenerateKeyWith(mpint.HostSearch, mpint.NewRNG(2000), 256)
	if err != nil {
		t.Fatal(err)
	}
	if sk.N.BitLen() != 256 {
		t.Fatalf("key size = %d", sk.N.BitLen())
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
	if _, err := GenerateKeyWith(mpint.HostSearch, mpint.NewRNG(1), 8); err == nil {
		t.Fatal("tiny key should be rejected")
	}
	// An odd size used to spin forever: two 16-bit primes never make 33 bits.
	if sk, err := GenerateKeyWith(mpint.HostSearch, mpint.NewRNG(1), 33); err == nil || sk != nil {
		t.Fatalf("GenerateKeyWith(33 bits) = %v, %v; want an error", sk, err)
	}
}

func TestNewKeyFromPrimesValidation(t *testing.T) {
	r := mpint.NewRNG(4)
	p := r.RandPrime(64)
	if _, err := NewKeyFromPrimes(p, p); err == nil {
		t.Fatal("p == q should be rejected")
	}
}
