// Package rsa implements textbook RSA with its multiplicative homomorphism
// — the second cryptosystem FLBooster's API layer exposes (Table I:
// RSA::key_gen / encrypt / decrypt / mul). Decryption uses the standard CRT
// split. This is deliberately *textbook* (no OAEP padding): the homomorphic
// property E(m₁)·E(m₂) = E(m₁·m₂) that federated protocols exploit only
// holds without padding, exactly as in the paper's API.
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

// PrivateKey is the full trapdoor with CRT precomputation.
type PrivateKey struct {
	PublicKey
	D mpint.Nat // decryption exponent
	P mpint.Nat
	Q mpint.Nat

	dp, dq mpint.Nat // d mod p−1, d mod q−1
	qInv   mpint.Nat // q⁻¹ mod p
	montP  *mpint.Mont
	montQ  *mpint.Mont
}

// Ciphertext is an RSA ciphertext in Z*_n.
type Ciphertext struct {
	C mpint.Nat
}

// defaultE is the conventional public exponent 65537.
var defaultE = mpint.FromUint64(65537)

// KeyBits returns the modulus size in bits.
func (pk *PublicKey) KeyBits() int { return pk.N.BitLen() }

// Mont exposes the modulus context for vectorized backends.
func (pk *PublicKey) Mont() *mpint.Mont { return pk.mont }

// GenerateKey creates an RSA key pair with an n of exactly `bits` bits and
// e = 65537, its primes walked on the host loop.
func GenerateKey(rng *mpint.RNG, bits int) (*PrivateKey, error) {
	return GenerateKeyWith(mpint.HostSearch, rng, bits)
}

// GenerateKeyWith is GenerateKey with the prime walk's Miller–Rabin rounds run
// by search — the same key whoever runs them.
func GenerateKeyWith(search mpint.PrimeSearch, rng *mpint.RNG, bits int) (*PrivateKey, error) {
	if err := CheckKeyBits(bits); err != nil {
		return nil, err
	}
	for {
		p, q, err := search.Pair(rng, bits/2)
		if err != nil {
			return nil, fmt.Errorf("rsa: prime search: %w", err)
		}
		if mpint.Mul(p, q).BitLen() != bits {
			continue
		}
		if sk, err := NewKeyFromPrimes(p, q); err == nil {
			return sk, nil
		} // else e not invertible mod φ(n); redraw
	}
}

// CheckKeyBits rejects the sizes no generator can produce: too small, or odd —
// two ⌊bits/2⌋-bit primes never multiply to an odd-length n, and a redraw loop
// would not end.
func CheckKeyBits(bits int) error {
	if bits < 16 {
		return fmt.Errorf("rsa: key size %d too small", bits)
	}
	if bits%2 != 0 {
		return fmt.Errorf("rsa: key size %d is odd; n is the product of two %d-bit primes", bits, bits/2)
	}
	return nil
}

// NewKeyFromPrimes assembles a key from two primes.
func NewKeyFromPrimes(p, q mpint.Nat) (*PrivateKey, error) {
	if mpint.Cmp(p, q) == 0 {
		return nil, fmt.Errorf("rsa: p and q must differ")
	}
	n := mpint.Mul(p, q)
	pm1 := mpint.SubWord(p, 1)
	qm1 := mpint.SubWord(q, 1)
	phi := mpint.Mul(pm1, qm1)
	d, ok := mpint.ModInverse(defaultE, phi)
	if !ok {
		return nil, fmt.Errorf("rsa: e=65537 not invertible mod φ(n)")
	}
	qInv, ok := mpint.ModInverse(q, p)
	if !ok {
		return nil, fmt.Errorf("rsa: q not invertible mod p")
	}
	sk := &PrivateKey{
		PublicKey: PublicKey{N: n, E: defaultE.Clone(), mont: mpint.NewMont(n)},
		D:         d, P: p, Q: q,
		dp:    mpint.Mod(d, pm1),
		dq:    mpint.Mod(d, qm1),
		qInv:  qInv,
		montP: mpint.NewMont(p),
		montQ: mpint.NewMont(q),
	}
	return sk, nil
}

// Encrypt computes c = mᵉ mod n. The plaintext must be < n.
func (pk *PublicKey) Encrypt(m mpint.Nat) (Ciphertext, error) {
	if mpint.Cmp(m, pk.N) >= 0 {
		return Ciphertext{}, fmt.Errorf("rsa: plaintext (%d bits) must be < n (%d bits)",
			m.BitLen(), pk.N.BitLen())
	}
	return Ciphertext{C: pk.mont.Exp(m, pk.E)}, nil
}

// Decrypt computes m = c^d mod n via the CRT: m_p = c^dp mod p,
// m_q = c^dq mod q, recombined with Garner's formula.
func (sk *PrivateKey) Decrypt(c Ciphertext) (mpint.Nat, error) {
	if mpint.Cmp(c.C, sk.N) >= 0 {
		return nil, fmt.Errorf("rsa: ciphertext out of range")
	}
	mp := sk.montP.Exp(c.C, sk.dp)
	mq := sk.montQ.Exp(c.C, sk.dq)
	// m = mq + q·((mp − mq)·qInv mod p)
	diff := mpint.ModSub(mp, mpint.Mod(mq, sk.P), sk.P)
	h := mpint.ModMul(diff, sk.qInv, sk.P)
	return mpint.Add(mq, mpint.Mul(sk.Q, h)), nil
}

// Mul computes the multiplicative homomorphism:
// E(m₁)·E(m₂) mod n = E(m₁·m₂ mod n).
func (pk *PublicKey) Mul(a, b Ciphertext) Ciphertext {
	return Ciphertext{C: mpint.ModMul(a.C, b.C, pk.N)}
}
