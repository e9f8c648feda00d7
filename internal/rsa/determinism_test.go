package rsa_test

import (
	"testing"

	"flbooster/internal/core"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

func TestDeterministicEncryption(t *testing.T) {
	// Textbook RSA is deterministic — what its multiplicative homomorphism
	// needs; pin it down so nobody "fixes" it with padding.
	p, err := core.New(gpu.SmallTestDevice(), 7)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := p.RSAKeyGen(256)
	if err != nil {
		t.Fatal(err)
	}
	ms := []mpint.Nat{mpint.FromUint64(424242), mpint.FromUint64(424242)}
	c1, err := p.RSAEncrypt(&sk.PublicKey, ms)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.RSAEncrypt(&sk.PublicKey, ms[:1])
	if err != nil {
		t.Fatal(err)
	}
	if mpint.Cmp(c1[0].C, c1[1].C) != 0 || mpint.Cmp(c1[0].C, c2[0].C) != 0 {
		t.Fatal("textbook RSA must be deterministic")
	}
}
