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
//   - Encrypt: (m, x) ↦ (1 + m·n)·xⁿ mod n², a whole Paillier encryption under
//     g = n+1. Its noise term xⁿ mod n² comes from half-width chains: for
//     x ∈ Z*ₙ the value xⁿ mod p² lies in the subgroup of order p−1, so x mod
//     p alone fixes it: with b = (x mod p)^(q mod (p−1)) mod p, xⁿ ≡ bᵖ
//     (mod p²), because n ≡ q (mod p−1) gives x^q ≡ b (mod p), and u ≡ v
//     (mod p) implies uᵖ ≡ vᵖ (mod p²). Per prime that is a half-width
//     exponent over the prime and another over its square, against one
//     full-width exponent over n². The identity also holds when p divides x
//     (both sides are 0). The ciphertext splits like its noise term, c mod p²
//     = (1 + (m·n mod p²))·(xⁿ mod p²): the chain leaves xⁿ mod p² in
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
// The Montgomery contexts, the four noise-term schedules, the two of Decrypt and the
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
	e1, e2 ExpSchedule // o mod (s−1), and s: the two exponents of the noise term
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
// Primality is the caller's business (the noise term is simply a different
// map on composites); what is checked is what the arithmetic itself needs.
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

// P and Q return the Montgomery contexts mod p and mod q.
func (c *CRT) P() *Mont { return c.p.m1 }
func (c *CRT) Q() *Mont { return c.q.m1 }

// CRTStage describes one exponentiation of the noise-term chain in the cost
// model's units: the modulus size in 32-bit words (Mont.Limbs) and the
// exponent length in bits.
type CRTStage struct{ Limbs, ExpBits int }

// Stages returns the noise term's four exponentiations in execution order:
// mod p, mod p², mod q, mod q².
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

// crtGroup is one call on up to eight operands, a lane each, every lane on
// crtScratch of its own for the length of the call: the values its stages
// hand each other, lane by lane, and the scratch of the stage's contexts, the
// form a group walk (expMontVec) takes them in. A call of one operand is a
// group of one, so a lane computes the same thing alone or beside seven
// others; a group runs each of its exponentiations as one walk.
type crtGroup struct {
	n        int
	sc       [groupLanes]*crtScratch
	x, m, gm [groupLanes]Nat    // the operand; the plaintext; gᵐ's share mod s²
	div      [groupLanes][]Word // the lane's division buffer
	a, b     [groupLanes]Nat    // stage values
	s1, s2   [groupLanes]*mulScratch
}

func (c *CRT) open(g *crtGroup, n int) {
	g.n = n
	for l := range n {
		g.sc[l] = c.getScratch()
	}
}

func (c *CRT) close(g *crtGroup) {
	for _, sc := range g.sc[:g.n] {
		c.scratch.Put(sc)
	}
}

// use points the stage scratch at p's contexts, or at q's.
func (g *crtGroup) use(p bool) {
	for l, sc := range g.sc[:g.n] {
		if p {
			g.s1[l], g.s2[l] = sc.p1, sc.p2
		} else {
			g.s1[l], g.s2[l] = sc.q1, sc.q2
		}
	}
}

// powN sets g.a[l] = gm·x^(s·o) mod s² in every lane, as m2.k limbs in the
// lane's s2 slab, valid until that scratch next runs a chain: (x mod s)^(o
// mod (s−1)) mod s, out of Montgomery form, that to the s mod s², which the
// chain leaves in Montgomery form, and one multiply by the plain residue gm on
// the way out of it. div holds len(x)+m1.k+1 limbs, and gm lives outside it.
func (pr *crtPrime) powN(g *crtGroup) {
	n := g.n
	for l := range n {
		_, g.a[l] = divInto(nil, g.div[l], g.x[l], pr.m1.n)
	}
	pr.m1.expMontVec(g.b[:n], g.a[:n], &pr.e1, g.s1[:n])
	for l := range n {
		pr.m1.mulInto(g.b[l], g.b[l], One(), g.s1[l]) // out of Montgomery form, in place
	}
	pr.m2.expMontVec(g.a[:n], g.b[:n], &pr.e2, g.s2[:n])
	for l := range n {
		pr.m2.mulInto(g.a[l], g.a[l], g.gm[l], g.s2[l])
	}
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
// turn. A nonce drawn in place checks coprimality in the same limbs before any
// of that starts (EncryptDrawVec sizes for both).
func (c *CRT) encWords(m, x Nat) int {
	k2 := max(c.p.m2.k, c.q.m2.k)
	return k2 + max(len(m), len(x), c.q.m2.k) + k2 + 1
}

// Encrypt returns (1 + m·n)·xⁿ mod n² — the Paillier ciphertext of m under
// g = n+1 and nonce x, bit for bit the textbook ModMul(1 + m·n, xⁿ mod n², n²)
// — whole through the factorisation, allocating the ciphertext and nothing
// else.
func (c *CRT) Encrypt(m, x Nat) Nat {
	var g crtGroup
	c.open(&g, 1)
	defer c.close(&g)
	g.m[0], g.x[0] = trim(m), trim(x)
	g.div[0] = g.sc[0].words(c.encWords(g.m[0], g.x[0]))
	var out [1]Nat
	c.encrypt(out[:], &g)
	return out[0]
}

// EncryptDrawVec sets out[i] = Encrypt(ms[i], r) for every i, r the nonce
// rngs[i].RandCoprime(N()) would return — the same draws, rejections and
// coprimality check — drawn lane by lane into the pooled scratch instead of
// the heap, and each group of eight's exponentiations run as one walk a
// stage. A ciphertext is written into the limbs out[i] already has
// where they hold it, so a caller that hands in a dead batch's values
// allocates nothing; out must not share limbs with ms.
func (c *CRT) EncryptDrawVec(out, ms []Nat, rngs []*RNG) {
	k := len(c.n)
	for lo := 0; lo < len(ms); lo += groupLanes {
		var g crtGroup
		c.open(&g, min(groupLanes, len(ms)-lo))
		for l := range g.n {
			m := trim(ms[lo+l])
			w := g.sc[l].words(k + max(c.encWords(m, nil), gcdWords(k)))
			g.m[l], g.x[l], g.div[l] = m, rngs[lo+l].randCoprimeInto(w[:k], w[k:], c.n), w[k:]
		}
		c.encrypt(out[lo:lo+g.n], &g)
		c.close(&g)
	}
}

// encrypt is Encrypt for the group's trimmed plaintexts and nonces; g.div[l]
// holds encWords limbs — gᵐ's share, then the division buffer — and does not
// overlap the lane's nonce.
func (c *CRT) encrypt(out []Nat, g *crtGroup) {
	kg := max(c.p.m2.k, c.q.m2.k)
	var gm [groupLanes][]Word
	for l := range g.n {
		gm[l], g.div[l] = g.div[l][:kg], g.div[l][kg:]
	}
	var cp [groupLanes]Nat
	for i, pr := range [2]*crtPrime{&c.p, &c.q} {
		g.use(i == 0)
		for l := range g.n {
			g.gm[l] = pr.gPowM(g.m[l], g.s2[l], gm[l], g.div[l])
		}
		pr.powN(g)
		if i == 0 {
			cp = g.a
		}
	}
	for l := range out {
		out[l] = c.sq.combine(out[l], cp[l], trim(g.a[l]), g.sc[l].p2, g.div[l])
	}
}

// combine returns the x < a·b with x ≡ xa (mod a) and x ≡ xb (mod b), for
// xb < b, in dst's limbs where they hold it (resize) — the caller's one
// allocation where they do not. xa is a.k limbs holding a value < a and is
// clobbered; sc is a's scratch; div holds len(xb)+a.k+1 limbs.
func (g *garner) combine(dst Nat, xa []Word, xb Nat, sc *mulScratch, div []Word) Nat {
	_, t := divInto(nil, div, xb, g.a.n)
	if subInto(xa, xa, t) != 0 {
		addInto(xa, xa, g.a.n) // wrapped below zero: the carry out cancels the borrow
	}
	h := g.a.mulInto(xa, xa, g.bInv, sc) // (xa − xb)·b⁻¹ mod a
	if len(h) == 0 {
		return append(dst[:0], xb...)
	}
	z := resize(dst, len(g.b)+len(h))
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
	var out [1]Nat
	c.DecryptVec(out[:], []Nat{x}, hp, hq)
	return out[0]
}

// DecryptVec sets out[i] = Decrypt(xs[i], hp, hq) for every i, each group of
// eight's exponentiations run as one walk a prime, writing into out[i]'s limbs
// as EncryptDrawVec does; out must not share limbs with xs.
func (c *CRT) DecryptVec(out, xs []Nat, hp, hq Nat) {
	k2 := max(c.p.m2.k, c.q.m2.k)
	for lo := 0; lo < len(xs); lo += groupLanes {
		var g crtGroup
		c.open(&g, min(groupLanes, len(xs)-lo))
		for l := range g.n {
			x := trim(xs[lo+l])
			g.x[l], g.div[l] = x, g.sc[l].words(max(len(x)+k2, 3*k2+max(c.p.m1.k, c.q.m1.k))+1)
		}
		c.decrypt(out[lo:lo+g.n], &g, hp, hq)
		c.close(&g)
	}
}

// decrypt is Decrypt over the group's trimmed operands: per prime s, x
// reduced mod s², the chain, out of Montgomery form in place, and logMul; then
// Garner. div holds max(len(x)+m2.k, 3·m2.k+m1.k)+1 limbs.
func (c *CRT) decrypt(out []Nat, g *crtGroup, hp, hq Nat) {
	n := g.n
	var mp [groupLanes][]Word
	for i, pr := range [2]*crtPrime{&c.p, &c.q} {
		g.use(i == 0)
		for l := range n {
			_, g.a[l] = divInto(nil, g.div[l], g.x[l], pr.m2.n)
		}
		pr.m2.expMontVec(g.b[:n], g.a[:n], &pr.d, g.s2[:n])
		for l := range n {
			y := pr.m2.mulInto(g.b[l], g.b[l], One(), g.s2[l])
			if i == 0 {
				mp[l] = pr.logMul(y, hp, g.s1[l], g.div[l])
			} else {
				mq := pr.logMul(y, hq, g.s1[l], g.div[l])
				out[l] = c.low.combine(out[l], mp[l], trim(mq), g.sc[l].p1, g.div[l])
			}
		}
	}
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
