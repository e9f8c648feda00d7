// Package paillier implements the Paillier additively homomorphic
// cryptosystem (Paillier, EUROCRYPT 1999) on top of internal/mpint, exactly
// as §III-B of the paper describes: keys from two large primes p and q with
// λ = lcm(p−1, q−1); encryption E(m) = gᵐ·rⁿ mod n²; decryption
// D(c) = L(c^λ mod n²) / L(g^λ mod n²) mod n with L(x) = (x−1)/n; and the
// additive homomorphism E(m₁)·E(m₂) = E(m₁+m₂).
//
// Key generation defaults to g = n+1, which makes gᵐ a single modular
// multiplication (1 + m·n mod n²) without changing the scheme's semantics;
// GenerateKeyClassic draws a random g ∈ Z*_{n²} as the paper states it, and
// every operation works with either form. Decryption uses the CRT split
// over p² and q² — the standard 4× speedup.
package paillier

import (
	"fmt"

	"flbooster/internal/mpint"
)

// PublicKey holds (g, n) plus cached values every operation needs.
type PublicKey struct {
	N  mpint.Nat // modulus n = p·q
	G  mpint.Nat // generator g
	N2 mpint.Nat // n²

	montN2  *mpint.Mont // Montgomery context mod n²
	plusOne bool        // g == n+1 fast path
}

// PrivateKey extends the public key with the trapdoor.
type PrivateKey struct {
	PublicKey
	P, Q   mpint.Nat // the prime factors
	Lambda mpint.Nat // λ = lcm(p−1, q−1)
	Mu     mpint.Nat // μ = L(g^λ mod n²)⁻¹ mod n

	// CRT acceleration for c^λ mod n².
	p2, q2     mpint.Nat
	montP2     *mpint.Mont
	montQ2     *mpint.Mont
	q2InvModP2 mpint.Nat // (q²)⁻¹ mod p²

	// Reduced-exponent CRT decryption (§III-B optimisation): instead of one
	// full-λ exponentiation per prime square, decrypt with exponent p−1
	// (resp. q−1) — half the bits of λ — and fold the L(g^λ)⁻¹ correction
	// into per-prime constants hp = L_p(g^{p−1} mod p²)⁻¹ mod p. The halves
	// recombine over p and q with Garner's formula.
	pm1, qm1 mpint.Nat // p−1, q−1: the reduced decryption exponents
	hp, hq   mpint.Nat // L_p(g^{p−1})⁻¹ mod p, L_q(g^{q−1})⁻¹ mod q
	qInvModP mpint.Nat // q⁻¹ mod p
}

// Ciphertext is a Paillier ciphertext: an element of Z*_{n²}.
type Ciphertext struct {
	C mpint.Nat
}

// KeyBits returns the modulus size in bits (the paper's "key size").
func (pk *PublicKey) KeyBits() int { return pk.N.BitLen() }

// CiphertextBytes is the wire size of one ciphertext (2k bits for a k-bit
// key) — the ciphertext expansion that drives the communication overhead.
func (pk *PublicKey) CiphertextBytes() int { return (pk.N2.BitLen() + 7) / 8 }

// MontN2 exposes the n² Montgomery context for the vectorized GPU backend.
func (pk *PublicKey) MontN2() *mpint.Mont { return pk.montN2 }

// GenerateKey creates a key pair with an n of exactly `bits` bits, using the
// g = n+1 construction. rng supplies the primes (use mpint.NewCryptoRNG for
// real deployments; seeded RNGs keep experiments reproducible).
func GenerateKey(rng *mpint.RNG, bits int) (*PrivateKey, error) {
	if bits < 16 {
		return nil, fmt.Errorf("paillier: key size %d too small", bits)
	}
	for {
		p, q := rng.RandSafePrimePair(bits / 2)
		sk, err := newKey(p, q, nil)
		if err != nil {
			continue // e.g. gcd(pq, (p-1)(q-1)) ≠ 1; redraw
		}
		if sk.N.BitLen() != bits {
			continue
		}
		return sk, nil
	}
}

// GenerateKeyClassic creates a key pair with a random g ∈ Z*_{n²} satisfying
// gcd(L(g^λ mod n²), n) = 1 — the textbook construction from §III-B.
func GenerateKeyClassic(rng *mpint.RNG, bits int) (*PrivateKey, error) {
	if bits < 16 {
		return nil, fmt.Errorf("paillier: key size %d too small", bits)
	}
	for {
		p, q := rng.RandSafePrimePair(bits / 2)
		n := mpint.Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		n2 := mpint.Mul(n, n)
		g := rng.RandCoprime(n2)
		sk, err := newKey(p, q, g)
		if err != nil {
			continue
		}
		return sk, nil
	}
}

// NewKeyFromPrimes assembles a key pair from externally generated primes —
// the path the GPU key generator (ghe.GeneratePrimePair) feeds.
func NewKeyFromPrimes(p, q mpint.Nat) (*PrivateKey, error) {
	return newKey(p, q, nil)
}

func newKey(p, q, g mpint.Nat) (*PrivateKey, error) {
	if mpint.Cmp(p, q) == 0 {
		return nil, fmt.Errorf("paillier: p and q must differ")
	}
	n := mpint.Mul(p, q)
	n2 := mpint.Mul(n, n)
	pm1 := mpint.SubWord(p, 1)
	qm1 := mpint.SubWord(q, 1)
	if !mpint.GCD(n, mpint.Mul(pm1, qm1)).IsOne() {
		return nil, fmt.Errorf("paillier: gcd(n, φ(n)) must be 1")
	}
	lambda := mpint.LCM(pm1, qm1)

	pk := PublicKey{N: n, N2: n2, montN2: mpint.NewMont(n2)}
	if g == nil {
		pk.G = mpint.AddWord(n, 1)
		pk.plusOne = true
	} else {
		pk.G = g
	}

	sk := &PrivateKey{
		PublicKey: pk,
		P:         p, Q: q,
		Lambda: lambda,
		p2:     mpint.Mul(p, p),
		q2:     mpint.Mul(q, q),
	}
	sk.montP2 = mpint.NewMont(sk.p2)
	sk.montQ2 = mpint.NewMont(sk.q2)
	inv, ok := mpint.ModInverse(sk.q2, sk.p2)
	if !ok {
		return nil, fmt.Errorf("paillier: q² not invertible mod p²")
	}
	sk.q2InvModP2 = inv

	// μ = L(g^λ mod n²)⁻¹ mod n; with g = n+1, g^λ mod n² = 1 + λn, so
	// L = λ mod n and μ = λ⁻¹ mod n.
	gl := sk.expN2(pk.G, lambda)
	l := pk.lFunc(gl)
	mu, ok := mpint.ModInverse(l, n)
	if !ok {
		return nil, fmt.Errorf("paillier: L(g^λ) not invertible mod n (bad g)")
	}
	sk.Mu = mu

	// Reduced-exponent constants. g^{p−1} mod p² ≡ 1 mod p by Fermat, so
	// L_p applies; invertibility of the result mod p holds for every valid
	// g (it fails exactly when L(g^λ) is not invertible mod n, which the μ
	// computation above already rejected), but we check and redraw anyway.
	sk.pm1, sk.qm1 = pm1, qm1
	hp, ok := mpint.ModInverse(lHalf(sk.montP2.Exp(pk.G, pm1), p), p)
	if !ok {
		return nil, fmt.Errorf("paillier: L_p(g^(p-1)) not invertible mod p (bad g)")
	}
	hq, ok := mpint.ModInverse(lHalf(sk.montQ2.Exp(pk.G, qm1), q), q)
	if !ok {
		return nil, fmt.Errorf("paillier: L_q(g^(q-1)) not invertible mod q (bad g)")
	}
	qInv, ok := mpint.ModInverse(mpint.Mod(q, p), p)
	if !ok {
		return nil, fmt.Errorf("paillier: q not invertible mod p")
	}
	sk.hp, sk.hq, sk.qInvModP = hp, hq, qInv
	return sk, nil
}

// lHalf computes L_p(x) = (x−1)/p for x < p² with x ≡ 1 mod p; the quotient
// is already reduced mod p.
func lHalf(x, p mpint.Nat) mpint.Nat {
	return mpint.Div(mpint.Sub(x, mpint.One()), p)
}

// lFunc computes L(x) = (x−1)/n.
func (pk *PublicKey) lFunc(x mpint.Nat) mpint.Nat {
	return mpint.Div(mpint.Sub(x, mpint.One()), pk.N)
}

// expN2 computes base^e mod n² via the CRT split when the private key is
// available: x ≡ base^e mod p², mod q² recombined with Garner's formula.
func (sk *PrivateKey) expN2(base, e mpint.Nat) mpint.Nat {
	xp := sk.montP2.Exp(base, e)
	xq := sk.montQ2.Exp(base, e)
	// x = xq + q²·((xp − xq)·(q²)⁻¹ mod p²)
	diff := mpint.ModSub(xp, mpint.Mod(xq, sk.p2), sk.p2)
	h := mpint.ModMul(diff, sk.q2InvModP2, sk.p2)
	return mpint.Add(xq, mpint.Mul(sk.q2, h))
}

// GPowM computes gᵐ mod n², using the (1 + m·n) shortcut when g = n+1.
func (pk *PublicKey) GPowM(m mpint.Nat) mpint.Nat {
	if pk.plusOne {
		if mpint.Cmp(m, pk.N) < 0 {
			// A plaintext: 1 + m·n ≤ 1 + (n−1)·n < n², nothing to reduce.
			return mpint.AddWord(mpint.Mul(m, pk.N), 1)
		}
		return mpint.ModAdd(mpint.One(), mpint.Mod(mpint.Mul(m, pk.N), pk.N2), pk.N2)
	}
	return pk.montN2.Exp(pk.G, m)
}

// Encrypt encrypts a plaintext m < n with fresh randomness from rng:
// E(m) = gᵐ·rⁿ mod n² (Eq. 3).
func (pk *PublicKey) Encrypt(m mpint.Nat, rng *mpint.RNG) (Ciphertext, error) {
	if mpint.Cmp(m, pk.N) >= 0 {
		return Ciphertext{}, fmt.Errorf("paillier: plaintext (%d bits) must be < n (%d bits)",
			m.BitLen(), pk.N.BitLen())
	}
	r := rng.RandCoprime(pk.N)
	return pk.EncryptWithNonce(m, r)
}

// EncryptWithNonce encrypts with a caller-chosen nonce r (for deterministic
// tests and for the GPU backend, which draws nonces on-device).
func (pk *PublicKey) EncryptWithNonce(m, r mpint.Nat) (Ciphertext, error) {
	if mpint.Cmp(m, pk.N) >= 0 {
		return Ciphertext{}, fmt.Errorf("paillier: plaintext exceeds modulus")
	}
	gm := pk.GPowM(m)
	rn := pk.montN2.Exp(r, pk.N)
	return Ciphertext{C: mpint.ModMul(gm, rn, pk.N2)}, nil
}

// Decrypt recovers the plaintext with the reduced-exponent CRT path:
// m_p = L_p(c^{p−1} mod p²)·hp mod p and m_q likewise, recombined with
// Garner's formula m = m_q + q·((m_p − m_q)·q⁻¹ mod p). The exponents are
// half the bits of λ, so each prime-square exponentiation does roughly half
// the Montgomery multiplies of the classic D(c) = L(c^λ mod n²)·μ mod n —
// which DecryptClassic still provides, bit-exact with this path on every
// valid ciphertext.
func (sk *PrivateKey) Decrypt(c Ciphertext) (mpint.Nat, error) {
	if c.C.IsZero() || mpint.Cmp(c.C, sk.N2) >= 0 {
		return nil, fmt.Errorf("paillier: ciphertext out of range")
	}
	mp := sk.halfDecrypt(c.C, sk.montP2, sk.pm1, sk.hp, sk.P)
	mq := sk.halfDecrypt(c.C, sk.montQ2, sk.qm1, sk.hq, sk.Q)
	return sk.garner(mp, mq), nil
}

// DecryptClassic recovers the plaintext via the textbook full-λ route:
// D(c) = L(c^λ mod n²)·μ mod n (Eq. 4), with the n² exponentiation CRT-split
// over p² and q². Kept as the differential-testing reference for Decrypt.
func (sk *PrivateKey) DecryptClassic(c Ciphertext) (mpint.Nat, error) {
	if c.C.IsZero() || mpint.Cmp(c.C, sk.N2) >= 0 {
		return nil, fmt.Errorf("paillier: ciphertext out of range")
	}
	cl := sk.expN2(c.C, sk.Lambda)
	return mpint.ModMul(sk.lFunc(cl), sk.Mu, sk.N), nil
}

// halfDecrypt computes L_prime(c^{prime−1} mod prime²)·h mod prime — one
// prime's share of the reduced-exponent decryption.
func (sk *PrivateKey) halfDecrypt(c mpint.Nat, m *mpint.Mont, em1, h, prime mpint.Nat) mpint.Nat {
	return mpint.ModMul(lHalf(m.Exp(c, em1), prime), h, prime)
}

// garner recombines the per-prime plaintext shares into m mod n:
// m = m_q + q·((m_p − m_q)·q⁻¹ mod p).
func (sk *PrivateKey) garner(mp, mq mpint.Nat) mpint.Nat {
	diff := mpint.ModSub(mp, mpint.Mod(mq, sk.P), sk.P)
	h := mpint.ModMul(diff, sk.qInvModP, sk.P)
	return mpint.Add(mq, mpint.Mul(sk.Q, h))
}

// Add computes the homomorphic addition E(m₁+m₂) = E(m₁)·E(m₂) mod n²
// (Eq. 5).
func (pk *PublicKey) Add(a, b Ciphertext) Ciphertext {
	return Ciphertext{C: mpint.ModMul(a.C, b.C, pk.N2)}
}

// AddPlain computes E(m + k) from E(m) and a plaintext k: E(m)·gᵏ mod n².
func (pk *PublicKey) AddPlain(c Ciphertext, k mpint.Nat) Ciphertext {
	return Ciphertext{C: mpint.ModMul(c.C, pk.GPowM(k), pk.N2)}
}

// MulPlain computes E(k·m) from E(m) and a plaintext scalar k: E(m)ᵏ mod n².
func (pk *PublicKey) MulPlain(c Ciphertext, k mpint.Nat) Ciphertext {
	return Ciphertext{C: pk.montN2.Exp(c.C, k)}
}

// Rerandomize multiplies by a fresh encryption of zero, unlinking the
// ciphertext from its origin without changing the plaintext.
func (pk *PublicKey) Rerandomize(c Ciphertext, rng *mpint.RNG) Ciphertext {
	r := rng.RandCoprime(pk.N)
	rn := pk.montN2.Exp(r, pk.N)
	return Ciphertext{C: mpint.ModMul(c.C, rn, pk.N2)}
}
