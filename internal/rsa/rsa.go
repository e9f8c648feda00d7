// Package rsa holds the keys of textbook RSA, the second cryptosystem
// FLBooster's API layer exposes (Table I: RSA::key_gen / encrypt / decrypt /
// mul). The family itself runs on the executor, as core.Platform's RSAKeyGen,
// RSAEncrypt, RSADecrypt and RSAMul: c = mᵉ mod n and m = cᵈ mod n, one
// exponentiation kernel each. It is deliberately *textbook* (no OAEP padding):
// the homomorphic property E(m₁)·E(m₂) = E(m₁·m₂) that federated protocols
// exploit only holds without padding, exactly as in the paper's API.
package rsa

import (
	"fmt"

	"flbooster/internal/mpint"
)

// PublicKey is (n, e).
type PublicKey struct {
	N mpint.Nat
	E mpint.Nat

	mont *mpint.Mont
}

// PrivateKey is the full trapdoor.
type PrivateKey struct {
	PublicKey
	D mpint.Nat // decryption exponent
	P mpint.Nat
	Q mpint.Nat
}

// Ciphertext is an RSA ciphertext in Z*_n.
type Ciphertext struct {
	C mpint.Nat
}

// defaultE is the conventional public exponent 65537.
var defaultE = mpint.FromUint64(65537)

// Mont exposes the modulus context for vectorized backends.
func (pk *PublicKey) Mont() *mpint.Mont { return pk.mont }

// GenerateKeyWith creates an RSA key pair with an n of exactly `bits` bits and
// e = 65537 on the key walk (mpint.PrimeSearch.Key), its Miller–Rabin rounds
// run by search — the same key whoever runs them. A pair with e not
// invertible mod φ(n) is redrawn.
func GenerateKeyWith(search mpint.PrimeSearch, rng *mpint.RNG, bits int) (sk *PrivateKey, err error) {
	err = search.Key(rng, bits, func(p, q mpint.Nat) (err error) {
		sk, err = NewKeyFromPrimes(p, q)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("rsa: %w", err)
	}
	return sk, nil
}

// NewKeyFromPrimes assembles a key from two primes.
func NewKeyFromPrimes(p, q mpint.Nat) (*PrivateKey, error) {
	if mpint.Cmp(p, q) == 0 {
		return nil, fmt.Errorf("rsa: p and q must differ")
	}
	n := mpint.Mul(p, q)
	phi := mpint.Mul(mpint.SubWord(p, 1), mpint.SubWord(q, 1))
	d, ok := mpint.ModInverse(defaultE, phi)
	if !ok {
		return nil, fmt.Errorf("rsa: e=65537 not invertible mod φ(n)")
	}
	return &PrivateKey{
		PublicKey: PublicKey{N: n, E: defaultE.Clone(), mont: mpint.NewMont(n)},
		D:         d, P: p, Q: q,
	}, nil
}
