package mpint

import (
	"fmt"
	"sync"
)

// CRT is the arithmetic of a two-prime modulus n = p·q compiled for a party
// that knows the factors — a Paillier key holder. Everything here is
// arithmetic mod n or n² done in the prime and prime-square components and
// recombined with Garner's formula, on operands of half the width:
//
//   - PowN: x ↦ xⁿ mod n², the noise term of an encryption. For x ∈ Z*ₙ the
//     value xⁿ mod p² lies in the subgroup of order p−1, so x mod p alone
//     fixes it: with b = (x mod p)^(q mod (p−1)) mod p, xⁿ ≡ bᵖ (mod p²),
//     because n ≡ q (mod p−1) gives x^q ≡ b (mod p), and u ≡ v (mod p)
//     implies uᵖ ≡ vᵖ (mod p²). Per prime that is a half-width exponent over
//     the prime and another over its square, against one full-width exponent
//     over n². The identity also holds when p divides x (both sides are 0).
//   - Encrypt: (m, x) ↦ (1 + m·n)·xⁿ mod n², a whole Paillier encryption under
//     g = n+1. The ciphertext splits like its noise term, c mod p² =
//     (1 + (m·n mod p²))·(xⁿ mod p²): PowN's chain leaves xⁿ mod p² in
//     Montgomery form, and the multiply that would take it out of that form
//     takes it out through g_p = 1 + (m·n mod p²) instead — a Montgomery-form
//     operand times a plain one is plain — so gᵐ costs one half-width product
//     a prime (m by n's Montgomery form mod p²) and the n²-wide multiply of
//     the textbook expression never happens.
//   - Decrypt: c ↦ the m < n with m ≡ L_s(c^(s−1) mod s²)·h_s (mod s) for both
//     primes s, L_s(x) = (x−1)/s — a reduced-exponent Paillier decryption,
//     whole: the two half-width exponentiations, L, the h-multiplies and Garner
//     over (p, q), with nothing but the plaintext leaving the scratch.
//
// The Montgomery contexts, the four PowN schedules, the two of Decrypt and the
// Garner constants are built once per key; a compiled CRT is immutable and
// safe for concurrent use. Every operation runs its chain on pooled scratch and
// allocates only its result. Nothing here is constant-time.
type CRT struct {
	n       Nat
	p, q    crtPrime
	low, sq garner // over (p, q) and over (p², q²)

	scratch sync.Pool // *crtScratch
}

// crtPrime is one prime s of the pair with the other prime o.
type crtPrime struct {
	m1, m2 *Mont       // mod s and mod s²
	e1, e2 ExpSchedule // o mod (s−1), and s: the two exponents of PowN
	d      ExpSchedule // s−1: the exponent of Decrypt over s²
	nm     Nat         // n mod s² in m2's Montgomery form: m ↦ m·n mod s² is one mulInto
}

// garner recombines residues modulo two coprime moduli a and b:
// x = xb + b·((xa − xb)·b⁻¹ mod a).
type garner struct {
	a    *Mont // context of the first modulus
	b    Nat   // the second modulus
	bInv Nat   // b⁻¹ mod a in a's Montgomery form, so the product is one mulInto
}

// crtScratch is the working set of one operation: a multiply-chain scratch
// per context (taken from the contexts' pools once and kept) and one buffer
// for divisions and staged operands.
type crtScratch struct {
	p1, p2, q1, q2 *mulScratch
	work           []Word
}

// NewCRT compiles the arithmetic of n = p·q for distinct odd primes p and q.
// Primality is the caller's business (PowN is simply a different map on
// composites); what is checked is what the arithmetic itself needs.
func NewCRT(p, q Nat) (*CRT, error) {
	p, q = trim(p).Clone(), trim(q).Clone()
	for _, s := range []Nat{p, q} {
		if s.IsEven() || (len(s) == 1 && s[0] < 3) {
			return nil, fmt.Errorf("mpint: CRT factor %s is not an odd prime", s)
		}
	}
	c := &CRT{n: Mul(p, q)}
	c.p = newCRTPrime(p, q)
	c.q = newCRTPrime(q, p)
	var okLow, okSq bool
	c.low, okLow = newGarner(c.p.m1, q)
	c.sq, okSq = newGarner(c.p.m2, c.q.m2.n)
	if !okLow || !okSq {
		return nil, fmt.Errorf("mpint: CRT factors are not coprime")
	}
	if c.p.e1.isZero || c.q.e1.isZero {
		// (s−1) | o: impossible for odd primes, and x⁰ is not x^o mod s at s | x.
		return nil, fmt.Errorf("mpint: CRT factors are not distinct odd primes")
	}
	return c, nil
}

func newCRTPrime(s, o Nat) crtPrime {
	pr := crtPrime{m1: NewMont(s), m2: NewMont(Mul(s, s))}
	e1 := Mod(o, SubWord(s, 1))
	pr.e1.compile(e1, expWindowBits(e1.BitLen()), nil)
	pr.e2.compile(s, expWindowBits(s.BitLen()), nil)
	pr.d.compile(SubWord(s, 1), expWindowBits(s.BitLen()), nil) // s is odd: s−1 is as long
	pr.nm = pr.m2.ToMont(Mod(Mul(s, o), pr.m2.n))
	return pr
}

func newGarner(a *Mont, b Nat) (garner, bool) {
	inv, ok := ModInverse(b, a.n)
	if !ok {
		return garner{}, false
	}
	return garner{a: a, b: b, bInv: a.ToMont(inv)}, true
}

// N returns the modulus n = p·q.
func (c *CRT) N() Nat { return c.n }

// P and Q return the Montgomery contexts mod p and mod q; P2 and Q2 the ones
// mod p² and mod q² (the moduli of a reduced-exponent decryption's kernels).
func (c *CRT) P() *Mont  { return c.p.m1 }
func (c *CRT) Q() *Mont  { return c.q.m1 }
func (c *CRT) P2() *Mont { return c.p.m2 }
func (c *CRT) Q2() *Mont { return c.q.m2 }

// CRTStage describes one exponentiation of the PowN chain in the cost
// model's units: the modulus size in 32-bit words (Mont.Limbs) and the
// exponent length in bits.
type CRTStage struct{ Limbs, ExpBits int }

// Stages returns PowN's four exponentiations in execution order: mod p,
// mod p², mod q, mod q².
func (c *CRT) Stages() [4]CRTStage {
	st := func(m *Mont, s *ExpSchedule) CRTStage { return CRTStage{m.Limbs(), s.bits} }
	return [4]CRTStage{
		st(c.p.m1, &c.p.e1), st(c.p.m2, &c.p.e2),
		st(c.q.m1, &c.q.e1), st(c.q.m2, &c.q.e2),
	}
}

func (c *CRT) getScratch() *crtScratch {
	if sc, ok := c.scratch.Get().(*crtScratch); ok {
		return sc
	}
	return &crtScratch{
		p1: c.p.m1.getScratch(), p2: c.p.m2.getScratch(),
		q1: c.q.m1.getScratch(), q2: c.q.m2.getScratch(),
	}
}

// words returns the work buffer grown to at least n limbs.
func (sc *crtScratch) words(n int) []Word {
	if len(sc.work) < n {
		sc.work = make([]Word, n)
	}
	return sc.work
}

// PowN returns xⁿ mod n² — bit for bit what a Montgomery context mod n²
// computes as Exp(x, n), in under a third of the limb products.
func (c *CRT) PowN(x Nat) Nat {
	sc := c.getScratch()
	defer c.scratch.Put(sc)
	x = trim(x)
	// One division buffer serves x mod p, x mod q and Garner's yq mod p².
	work := sc.words(max(len(x), c.q.m2.k) + max(c.p.m2.k, c.q.m1.k) + 1)
	yp := c.p.powN(x, One(), sc.p1, sc.p2, work)
	yq := c.q.powN(x, One(), sc.q1, sc.q2, work)
	return c.sq.combine(yp, trim(yq), sc.p2, work)
}

// powN returns g·x^(s·o) mod s² as m2.k limbs inside sc2's slab, valid until
// sc2 next runs a chain: (x mod s)^(o mod (s−1)) mod s, then that to the s
// mod s², which the chain leaves in Montgomery form, and one multiply by the
// plain residue g on the way out of it — One() for the bare power. div holds
// len(x)+m1.k+1 limbs, and g lives outside it.
func (pr *crtPrime) powN(x, g Nat, sc1, sc2 *mulScratch, div []Word) Nat {
	_, r := divInto(nil, div, x, pr.m1.n)
	b := pr.m1.expMont(r, &pr.e1, sc1)
	pr.m1.mulInto(b, b, One(), sc1) // out of Montgomery form, in place
	y := pr.m2.expMont(b, &pr.e2, sc2)
	pr.m2.mulInto(y, y, g, sc2)
	return y
}

// gPowM returns 1 + (m·n mod s²) in g's first m2.k limbs: m reduced mod s²
// (it is below n, which is above the smaller prime's square) and one
// Montgomery product by n's Montgomery form. s divides n, so m·n mod s² is a
// multiple of s and the 1 added to it can neither carry out nor reach s².
// div holds len(m)+m2.k+1 limbs.
func (pr *crtPrime) gPowM(m Nat, sc2 *mulScratch, g, div []Word) Nat {
	g = g[:pr.m2.k]
	_, mr := divInto(nil, div, m, pr.m2.n)
	pr.m2.mulInto(g, mr, pr.nm, sc2)
	addInto(g, g, One())
	return g
}

// encWords is the work buffer of one encryption past the nonce: g, then the
// division buffer that serves m mod s², x mod s and Garner's cq mod p² in
// turn. n is no longer than the wider square, so the two working copies of a
// nonce draw fit in it with room to spare.
func (c *CRT) encWords(m, x Nat) int {
	k2 := max(c.p.m2.k, c.q.m2.k)
	return k2 + max(len(m), len(x), c.q.m2.k) + k2 + 1
}

// Encrypt returns (1 + m·n)·xⁿ mod n² — the Paillier ciphertext of m under
// g = n+1 and nonce x, bit for bit the textbook ModMul(1 + m·n, xⁿ mod n², n²)
// — whole through the factorisation, allocating the ciphertext and nothing
// else.
func (c *CRT) Encrypt(m, x Nat) Nat {
	sc := c.getScratch()
	defer c.scratch.Put(sc)
	m, x = trim(m), trim(x)
	return c.encrypt(m, x, sc, sc.words(c.encWords(m, x)))
}

// EncryptDraw is Encrypt under the nonce rng.RandCoprime(N()) would return —
// the same draws, rejections and coprimality check — drawn into the pooled
// scratch instead of the heap.
func (c *CRT) EncryptDraw(m Nat, rng *RNG) Nat {
	sc := c.getScratch()
	defer c.scratch.Put(sc)
	m = trim(m)
	k := len(c.n)
	work := sc.words(k + c.encWords(m, nil))
	x := rng.randCoprimeInto(work[:k], work[k:3*k], c.n)
	return c.encrypt(m, x, sc, work[k:])
}

// encrypt is Encrypt for trimmed operands on held scratch; work holds
// encWords limbs and does not overlap x.
func (c *CRT) encrypt(m, x Nat, sc *crtScratch, work []Word) Nat {
	kg := max(c.p.m2.k, c.q.m2.k)
	g, div := work[:kg], work[kg:]
	cp := c.p.powN(x, c.p.gPowM(m, sc.p2, g, div), sc.p1, sc.p2, div)
	cq := c.q.powN(x, c.q.gPowM(m, sc.q2, g, div), sc.q1, sc.q2, div)
	return c.sq.combine(cp, trim(cq), sc.p2, div)
}

// combine returns the x < a·b with x ≡ xa (mod a) and x ≡ xb (mod b), for
// xb < b — the caller's one allocation. xa is a.k limbs holding a value < a
// and is clobbered; sc is a's scratch; div holds len(xb)+a.k+1 limbs.
func (g *garner) combine(xa []Word, xb Nat, sc *mulScratch, div []Word) Nat {
	_, t := divInto(nil, div, xb, g.a.n)
	if subInto(xa, xa, t) != 0 {
		addInto(xa, xa, g.a.n) // wrapped below zero: the carry out cancels the borrow
	}
	h := g.a.mulInto(xa, xa, g.bInv, sc) // (xa − xb)·b⁻¹ mod a
	if len(h) == 0 {
		return xb.Clone()
	}
	z := make(Nat, len(g.b)+len(h))
	schoolbookInto(z, g.b, h)
	addInto(z, z, xb) // xb + b·h < b·(h+1): no carry out
	return trim(z)
}

// Decrypt is a reduced-exponent Paillier decryption of x < n²: it returns the
// m < n with m ≡ L_p(x^(p−1) mod p²)·hp (mod p) and m ≡ L_q(x^(q−1) mod q²)·hq
// (mod q), where L_s(y) = (y−1)/s. hp and hq are the key's constants in
// Montgomery form (P().ToMont, Q().ToMont), which makes each h-multiply a
// single Montgomery product. On a valid ciphertext x^(s−1) ≡ 1 mod s; on
// anything else the quotient is the floor and the result meaningless. The
// call allocates the plaintext and nothing else.
func (c *CRT) Decrypt(x, hp, hq Nat) Nat {
	sc := c.getScratch()
	defer c.scratch.Put(sc)
	x = trim(x)
	k2 := max(c.p.m2.k, c.q.m2.k)
	work := sc.words(max(len(x)+k2, 3*k2+max(c.p.m1.k, c.q.m1.k)) + 1)
	mp := c.p.logPow(x, hp, sc.p1, sc.p2, work)
	mq := c.q.logPow(x, hq, sc.q1, sc.q2, work)
	return c.low.combine(mp, trim(mq), sc.p1, work)
}

// logPow returns L_s(x^(s−1) mod s²)·h mod s as m1.k limbs in sc1's slab: x
// reduced mod s², the chain on sc2, out of Montgomery form in place, and
// logMul. work holds max(len(x)+m2.k, 3·m2.k+m1.k)+1 limbs.
func (pr *crtPrime) logPow(x, h Nat, sc1, sc2 *mulScratch, work []Word) []Word {
	_, r := divInto(nil, work, x, pr.m2.n)
	y := pr.m2.expMont(r, &pr.d, sc2)
	return pr.logMul(pr.m2.mulInto(y, y, One(), sc2), h, sc1, work)
}

// logMul returns floor((x−1)/s)·h mod s as m1.k limbs in sc's slab, for
// x < s² and h in Montgomery form. work holds 3·len(x)+m1.k+1 limbs: x−1,
// the quotient, and the division's own buffer.
func (pr *crtPrime) logMul(x, h Nat, sc *mulScratch, work []Word) []Word {
	sc.grow(pr.m1.k)
	out := sc.buf(pr.m1.k, 0)
	if len(x) == 0 {
		clear(out)
		return out
	}
	t, q := work[:len(x)], work[len(x):2*len(x)]
	subInto(t, x, One())
	l, _ := divInto(q, work[2*len(x):], t, pr.m1.n)
	pr.m1.mulInto(out, l, h, sc)
	return out
}
