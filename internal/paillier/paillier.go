// Package paillier implements the Paillier additively homomorphic
// cryptosystem (Paillier, EUROCRYPT 1999) on top of internal/mpint, exactly
// as §III-B of the paper describes: keys from two large primes p and q with
// λ = lcm(p−1, q−1); encryption E(m) = gᵐ·rⁿ mod n²; decryption
// D(c) = L(c^λ mod n²) / L(g^λ mod n²) mod n with L(x) = (x−1)/n; and the
// additive homomorphism E(m₁)·E(m₂) = E(m₁+m₂).
//
// The generator is always g = n+1, which makes gᵐ a single multiplication
// (1 + m·n mod n²) without changing the scheme's semantics; it is the only
// generator a key can be generated with or decoded under (ErrGenerator).
// Whoever holds the factorisation works through it (mpint.CRT): decryption
// splits over p² and q² — the standard 4× speedup — and so does the key
// holder's own encryption (PrivateKey.Holder), the whole ciphertext, at under
// a third of the public one's work.
package paillier

import (
	"errors"
	"fmt"

	"flbooster/internal/mpint"
)

// ErrGenerator rejects an encoded key whose generator is not n+1.
var ErrGenerator = errors.New("paillier: generator is not n+1")

// PublicKey holds (g, n) plus cached values every operation needs.
type PublicKey struct {
	N  mpint.Nat // modulus n = p·q
	G  mpint.Nat // generator g = n+1
	N2 mpint.Nat // n²

	montN2 *mpint.Mont        // Montgomery context mod n²
	nSched *mpint.ExpSchedule // n compiled: the exponent of every rⁿ over n²

	// own is the key's factorisation, set only on the handle
	// PrivateKey.Holder returns: it is how an encryption knows the encrypting
	// party owns the key. The shareable key — the one embedded in PrivateKey,
	// the one UnmarshalPublicKey builds — never carries it.
	own *mpint.CRT
}

// newPublicKey builds the shareable key of modulus n with its cached values.
func newPublicKey(n mpint.Nat) PublicKey {
	n2 := mpint.Mul(n, n)
	return PublicKey{N: n, G: mpint.AddWord(n, 1), N2: n2, montN2: mpint.NewMont(n2), nSched: mpint.CompileExpAuto(n)}
}

// PrivateKey extends the public key with the trapdoor.
type PrivateKey struct {
	PublicKey
	P, Q   mpint.Nat // the prime factors
	Lambda mpint.Nat // λ = lcm(p−1, q−1)

	// crt is the arithmetic through the factorisation: the contexts mod p,
	// q, p², q² and Garner's constants over both pairs.
	crt *mpint.CRT

	// Reduced-exponent CRT decryption (§III-B optimisation): instead of one
	// full-λ exponentiation over n², decrypt with exponent p−1 (resp. q−1) —
	// half the bits of λ — over p² (resp. q²), and fold the L(g^λ)⁻¹
	// correction into per-prime constants hp = L_p(g^{p−1} mod p²)⁻¹ mod p.
	// The halves recombine over p and q with Garner's formula (crt.Decrypt,
	// whose two exponents are compiled with the key).
	hp, hq mpint.Nat // L_p(g^{p−1})⁻¹ mod p, L_q(g^{q−1})⁻¹ mod q, in Montgomery form
	mu     mpint.Nat // μ = L(g^λ mod n²)⁻¹ = λ⁻¹ mod n: the textbook decryption the device path is spot-verified by

	holder *PublicKey // the public key plus crt: what Holder returns
}

// Holder returns the public-key handle of the party that owns sk. It is the
// same key as &sk.PublicKey — same ciphertext for the same plaintext and
// nonce, byte for byte — but encryptions under it go through the
// factorisation (mpint.CRT.Encrypt, the holder's lane of the encrypt_vec
// kernel ghe.Frame.EncryptVecs launches). Pass it wherever the encrypting
// party is the key's owner (the Fig. 2 clients); never share it — it carries
// the private key. &sk.PublicKey stays the one to hand to anybody else.
func (sk *PrivateKey) Holder() *PublicKey { return sk.holder }

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

// generateKey draws prime pairs from rng with search until one makes a key
// whose n has exactly bits bits. A pair whose product is short is passed over
// before the key is assembled; no draw depends on the assembly, so that changes
// no key.
func generateKey(search mpint.PrimeSearch, rng *mpint.RNG, bits int) (*PrivateKey, error) {
	if err := CheckKeyBits(bits); err != nil {
		return nil, err
	}
	for {
		p, q, err := search.Pair(rng, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: prime search: %w", err)
		}
		if mpint.Mul(p, q).BitLen() != bits {
			continue
		}
		if sk, err := NewKeyFromPrimes(p, q); err == nil {
			return sk, nil
		} // else e.g. gcd(pq, (p-1)(q-1)) ≠ 1; redraw
	}
}

// CheckKeyBits rejects the sizes no generator can produce: too small to hold a
// plaintext, or odd — two ⌊bits/2⌋-bit primes never multiply to an odd-length
// n, and a redraw loop would spin forever looking for one.
func CheckKeyBits(bits int) error {
	if bits < 16 {
		return fmt.Errorf("paillier: key size %d too small", bits)
	}
	if bits%2 != 0 {
		return fmt.Errorf("paillier: key size %d is odd; n is the product of two %d-bit primes", bits, bits/2)
	}
	return nil
}

// NewKeyFromPrimes assembles a key pair from primes — the path key generation
// and the private key decoder feed.
func NewKeyFromPrimes(p, q mpint.Nat) (*PrivateKey, error) {
	if mpint.Cmp(p, q) == 0 {
		return nil, fmt.Errorf("paillier: p and q must differ")
	}
	// First, because NewCRT vets the factors (odd, ≥ 3, coprime) and every
	// context below is built on a product of them.
	crt, err := mpint.NewCRT(p, q)
	if err != nil {
		return nil, fmt.Errorf("paillier: %w", err)
	}
	n := mpint.Mul(p, q)
	pm1 := mpint.SubWord(p, 1)
	qm1 := mpint.SubWord(q, 1)
	// With g = n+1, g^λ = 1 + λn mod n² and L(g^λ) = λ mod n, which this makes
	// invertible: the key decrypts.
	if !mpint.GCD(n, mpint.Mul(pm1, qm1)).IsOne() {
		return nil, fmt.Errorf("paillier: gcd(n, φ(n)) must be 1")
	}

	pk := newPublicKey(n)
	sk := &PrivateKey{PublicKey: pk, P: p, Q: q, Lambda: mpint.LCM(pm1, qm1), crt: crt}
	// gcd(n, λ) divides gcd(n, φ(n)) = 1.
	sk.mu, _ = mpint.ModInverse(mpint.Mod(sk.Lambda, n), n)
	holder := pk
	holder.own = crt
	sk.holder = &holder

	// Reduced-exponent constants, in closed form: (1+n)^(s−1) ≡ 1 + (s−1)·n
	// mod s² for any factor s — every binomial term past the linear one carries
	// n² — so L_s(g^(s−1) mod s²) = (s−1)·(n/s) mod s, with no exponentiation.
	// A decoded key's factors need not be prime, so the inverses are checked
	// all the same.
	hp, okP := mpint.ModInverse(lFactor(p, q), p)
	hq, okQ := mpint.ModInverse(lFactor(q, p), q)
	if !okP || !okQ {
		return nil, fmt.Errorf("paillier: L(g^(s−1)) not invertible mod a factor s")
	}
	sk.hp, sk.hq = crt.P().ToMont(hp), crt.Q().ToMont(hq)
	return sk, nil
}

// lFactor is L_s(g^(s−1) mod s²) for the factor s of n = s·t: (s−1)·t mod s.
func lFactor(s, t mpint.Nat) mpint.Nat { return mpint.ModMul(mpint.SubWord(s, 1), t, s) }

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

// EncryptWithNonce encrypts with a caller-chosen nonce r: one call of the
// routine a lane of the GPU backend's kernel runs for the same kind of handle
// — through the factorisation for the key's holder, over the n² window for
// anybody else — so the two cannot drift apart. The textbook expression
// ModMul(gᵐ, rⁿ mod n², n²) is what the tests hold both to.
func (pk *PublicKey) EncryptWithNonce(m, r mpint.Nat) (Ciphertext, error) {
	if mpint.Cmp(m, pk.N) >= 0 {
		return Ciphertext{}, fmt.Errorf("paillier: plaintext exceeds modulus")
	}
	if pk.own != nil {
		return Ciphertext{C: pk.own.Encrypt(m, r)}, nil
	}
	return Ciphertext{C: pk.montN2.EncryptN(m, r, pk.N, pk.nSched)}, nil
}

// Decrypt recovers the plaintext with the reduced-exponent CRT path — one
// call of the routine a lane of the GPU backend's kernel runs —
// m_p = L_p(c^{p−1} mod p²)·hp mod p and m_q likewise, recombined with
// Garner's formula m = m_q + q·((m_p − m_q)·q⁻¹ mod p). The exponents are
// half the bits of λ, so each prime-square exponentiation does roughly half
// the Montgomery multiplies of the textbook D(c) = L(c^λ mod n²)·μ mod n, the
// oracle the tests hold this path to bit for bit.
func (sk *PrivateKey) Decrypt(c Ciphertext) (mpint.Nat, error) {
	if c.C.IsZero() || mpint.Cmp(c.C, sk.N2) >= 0 {
		return nil, fmt.Errorf("paillier: ciphertext out of range")
	}
	return sk.crt.Decrypt(c.C, sk.hp, sk.hq), nil
}

// Add computes the homomorphic addition E(m₁+m₂) = E(m₁)·E(m₂) mod n²
// (Eq. 5).
func (pk *PublicKey) Add(a, b Ciphertext) Ciphertext {
	return Ciphertext{C: mpint.ModMul(a.C, b.C, pk.N2)}
}

// MulPlain computes E(k·m) from E(m) and a plaintext scalar k: E(m)ᵏ mod n².
func (pk *PublicKey) MulPlain(c Ciphertext, k mpint.Nat) Ciphertext {
	return Ciphertext{C: pk.montN2.Exp(c.C, k)}
}
