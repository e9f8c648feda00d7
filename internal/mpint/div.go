package mpint

import "math/bits"

// DivMod returns the quotient and remainder of x / y.
// It panics when y == 0.
func DivMod(x, y Nat) (q, r Nat) {
	x, y = trim(x), trim(y)
	if len(y) == 0 {
		panic("mpint: division by zero")
	}
	if Cmp(x, y) < 0 {
		return nil, x.Clone()
	}
	if len(y) == 1 {
		q = x.Clone()
		rw := divWordInPlace(q, y[0])
		return trim(q), FromUint64(rw)
	}
	return divInto(make(Nat, len(x)-len(y)+1), make(Nat, len(x)+len(y)+1), x, y)
}

// Div returns x / y.
func Div(x, y Nat) Nat { q, _ := DivMod(x, y); return q }

// Mod returns x mod y.
func Mod(x, y Nat) Nat { _, r := DivMod(x, y); return r }

// divWordInPlace replaces x by x / w and returns x mod w.
func divWordInPlace(x []Word, w Word) Word {
	var r Word
	for i := len(x) - 1; i >= 0; i-- {
		x[i], r = bits.Div64(r, x[i], w)
	}
	return r
}

// modWord returns x mod w without forming the quotient.
func modWord(x Nat, w Word) Word {
	var r Word
	for i := len(x) - 1; i >= 0; i-- {
		_, r = bits.Div64(r, x[i], w)
	}
	return r
}

// divInto is DivMod on caller-provided limbs, for y ≠ 0: the remainder comes
// back as a prefix of buf (at least len(x)+len(y)+1 limbs) and the quotient
// as a prefix of q (at least len(x)−len(y)+1 limbs when x ≥ y). A nil q asks
// for the remainder alone — modWord's idea at full width: the quotient digits
// are estimated and used, never stored. Neither buffer may alias an operand.
//
// The multi-limb case is Knuth TAOCP vol. 2, Algorithm 4.3.1 D. The divisor
// is normalized so its top limb has its high bit set; each quotient limb is
// estimated from the top two limbs of the running remainder and the top limb
// of the divisor, then corrected at most twice.
func divInto(q, buf []Word, x, y Nat) (quo, rem Nat) {
	x, y = trim(x), trim(y)
	n := len(y)
	switch {
	case Cmp(x, y) < 0:
		return nil, buf[:copy(buf, x)]
	case n == 1 && q == nil:
		buf[0] = modWord(x, y[0])
		return nil, trim(buf[:1])
	case n == 1:
		q = q[:copy(q, x)]
		buf[0] = divWordInPlace(q, y[0])
		return trim(q), trim(buf[:1])
	}
	// D1: normalize into buf: the dividend with an explicit extra high limb,
	// then the divisor.
	shift := uint(bits.LeadingZeros64(y[n-1]))
	u, v := buf[:len(x)+1], buf[len(x)+1:len(x)+1+n]
	if shift == 0 {
		copy(u, x)
		u[len(x)] = 0
		copy(v, y)
	} else {
		u[len(x)] = lshInto(u[:len(x)], x, shift)
		lshInto(v, y, shift)
	}
	m := len(x) - n // number of quotient limbs minus one
	if q != nil {
		q = q[:m+1]
	}
	vTop, vNext := v[n-1], v[n-2]

	// D2..D7: loop over quotient digits from most significant down.
	for j := m; j >= 0; j-- {
		// D3: estimate qhat from the top two limbs of u[j..j+n]. The running
		// remainder is below v·B, so u[j+n] ≤ vTop; equality would overflow
		// the one-limb quotient, and qhat saturates instead.
		qhat := ^Word(0)
		if uTop := u[j+n]; uTop != vTop {
			var rhat Word
			qhat, rhat = bits.Div64(uTop, u[j+n-1], vTop)
			// Correct while qhat·vNext > rhat·B + u[j+n-2]; once rhat
			// overflows a limb the right side is out of reach.
			hi, lo := bits.Mul64(qhat, vNext)
			for hi > rhat || (hi == rhat && lo > u[j+n-2]) {
				qhat--
				prev := rhat
				rhat += vTop
				if rhat < prev {
					break
				}
				hi, lo = bits.Mul64(qhat, vNext)
			}
		}
		// D4: multiply and subtract u[j..j+n] -= qhat * v.
		var borrow, mulCarry Word
		for i := 0; i < n; i++ {
			hi, lo := bits.Mul64(qhat, v[i])
			lo, c := bits.Add64(lo, mulCarry, 0)
			mulCarry = hi + c
			u[j+i], borrow = bits.Sub64(u[j+i], lo, borrow)
		}
		u[j+n], borrow = bits.Sub64(u[j+n], mulCarry, borrow)

		// D5/D6: if we subtracted one time too many, add v back.
		if borrow != 0 {
			qhat--
			u[j+n] += addInto(u[j:j+n], u[j:j+n], v)
		}
		if q != nil {
			q[j] = qhat
		}
	}
	// D8: denormalize the remainder in place; it aliases only buf.
	r := u[:n]
	if shift != 0 {
		rshInto(r, r, shift)
	}
	return trim(q), trim(r)
}

// GCD returns the greatest common divisor of x and y.
func GCD(x, y Nat) Nat {
	x, y = trim(x), trim(y)
	if Cmp(x, y) < 0 {
		x, y = y, x
	}
	if len(y) == 0 {
		return x.Clone()
	}
	return gcdInto(x, y, make([]Word, gcdWords(len(x)))).Clone()
}

// gcdWords is the work gcdInto needs for operands of up to k limbs: the pair,
// and a division step's buffer.
func gcdWords(k int) int { return 4*k + 1 }

// gcdInto returns gcd(x, y) for trimmed x ≥ y ≥ 1 as limbs of work, which
// holds gcdWords(len(x)) limbs and aliases neither operand.
func gcdInto(x, y Nat, work []Word) Nat {
	k := len(x)
	e := euclid{a: work[:k:k], b: work[k : 2*k : 2*k], div: work[2*k : 4*k+1]}
	e.load(x, y)
	e.run()
	return e.a[:e.la]
}

// euclid is one walk of Euclid's algorithm on caller-held limbs, Lehmer's
// way: the leading word of the pair simulates as many quotient steps as that
// word decides (lehmerSimulate, Collins' condition), and one pass over the
// whole pair applies them all (cosequence), so a pass retires about a word of
// the pair where the binary GCD retires a bit; a division step runs only where
// the leading words decide nothing (a quotient as wide as a word, or operands
// of different lengths). The pair (a, b), a ≥ b, sits in buffers of equal
// length, each zero above its significant limbs (la, lb).
//
// For an inverse (ua != nil) the walk also carries, in buffers of their own,
// the magnitudes of the coefficients ua, ub with a ≡ ua·x and b ≡ ub·x modulo
// the other operand. Their signs alternate, so only ua's is kept (neg): every
// quotient step flips it, and the magnitudes of a step's combination add.
type euclid struct {
	a, b   []Word
	la, lb int
	div    []Word // a division step's buffer: la+lb+1 limbs

	ua, ub []Word // coefficient magnitudes, one limb above the modulus'
	lu     int    // significant limbs of the longer coefficient
	neg    bool   // ua < 0
	q, t   []Word // a division step's quotient, and its product with ub
}

// load sets the pair to trimmed x ≥ y.
func (e *euclid) load(x, y Nat) {
	copy(e.a, x)
	clear(e.a[len(x):])
	copy(e.b, y)
	clear(e.b[len(y):])
	e.la, e.lb = len(x), len(y)
}

// run walks the pair down to (gcd, 0), leaving the gcd in a.
func (e *euclid) run() {
	for e.lb > 1 {
		u0, u1, v0, v1, even := lehmerSimulate(e.a[:e.la], e.b[:e.lb])
		if v0 == 0 {
			e.step()
			continue
		}
		n := e.la
		cosequence(e.a[:n], e.b[:n], u0, u1, v0, v1, even)
		e.la, e.lb = len(trim(e.a[:n])), len(trim(e.b[:n]))
		if e.ua != nil {
			e.combine(u0, u1, v0, v1)
			e.neg = e.neg != !even
		}
	}
	if e.lb == 0 {
		return
	}
	if e.la > 1 {
		e.step()
		if e.lb == 0 {
			return
		}
	}
	// Both are single words.
	a, b := e.a[0], e.b[0]
	if e.ua == nil {
		a = gcdWord(a, b)
	} else {
		u0, v0, u1, v1, even := Word(1), Word(0), Word(0), Word(1), true
		for b != 0 {
			q, r := a/b, a%b
			a, b = b, r
			u0, u1 = u1, u0+q*u1
			v0, v1 = v1, v0+q*v1
			even = !even
		}
		e.combine(u0, 0, v0, 0)
		e.neg = e.neg != !even
	}
	e.a[0], e.b[0], e.lb = a, 0, 0
}

// gcdWord is gcd(a, b) for a ≥ b ≥ 1 by the binary GCD, which on one word is
// a shift and a subtraction a bit where a remainder is a hardware division.
func gcdWord(a, b Word) Word {
	shift := bits.TrailingZeros64(a | b)
	a >>= bits.TrailingZeros64(a)
	for b != 0 {
		b >>= bits.TrailingZeros64(b)
		if a > b {
			a, b = b, a
		}
		b -= a
	}
	return a << shift
}

// step is one division step: (a, b) ← (b, a mod b), and for an inverse
// (ua, ub) ← (ub, ua + ⌊a/b⌋·ub).
func (e *euclid) step() {
	var q []Word
	if e.ua != nil {
		q = e.q
	}
	quo, r := divInto(q, e.div, e.a[:e.la], e.b[:e.lb])
	// a is spent: it takes the remainder and becomes b.
	copy(e.a, r)
	clear(e.a[len(r):e.la])
	e.a, e.b, e.la, e.lb = e.b, e.a, e.lb, len(r)
	if e.ua == nil {
		return
	}
	// a ≥ b makes the quotient at least 1, and ub starts at 1 and only grows.
	ub := trim(e.ub[:e.lu])
	t := e.t[:len(quo)+len(ub)]
	schoolbookInto(t, quo, ub)
	t = trim(t)
	n := max(e.lu, len(t)) + 1 // the sum is the next coefficient, below the modulus
	addInto(e.ua[:n], e.ua[:n], t)
	e.ua, e.ub = e.ub, e.ua
	e.lu = max(len(trim(e.ua)), len(trim(e.ub)))
	e.neg = !e.neg
}

// combine sets the coefficient magnitudes to (u0·ua + v0·ub, u1·ua + v1·ub),
// in place, limb i of both from limb i of both.
func (e *euclid) combine(u0, u1, v0, v1 Word) {
	n := e.lu + 1
	ua, ub := e.ua[:n], e.ub[:n]
	var c0, c1, c2, c3, s0, s1 Word
	for i := range ua {
		x, y := ua[i], ub[i]
		a0, a1, a2, a3 := mulAddWW(u0, x, &c0), mulAddWW(v0, y, &c1), mulAddWW(u1, x, &c2), mulAddWW(v1, y, &c3)
		ua[i], s0 = bits.Add64(a0, a1, s0)
		ub[i], s1 = bits.Add64(a2, a3, s1)
	}
	e.lu = max(len(trim(ua)), len(trim(ub)))
}

// mulAddWW returns the low limb of x·y + *c and leaves the high limb in *c.
func mulAddWW(x, y Word, c *Word) Word {
	hi, lo := bits.Mul64(x, y)
	lo, cc := bits.Add64(lo, *c, 0)
	*c = hi + cc
	return lo
}

// cosequence applies the j quotient steps lehmerSimulate found to the whole
// pair, in place over len(a) limbs (b zero above its value): (a, b) ←
// (u0·a − v0·b, v1·b − u1·a) when j is even, the negations of both
// differences when it is odd. Limb i of both results is formed from limb i of
// both operands, so neither needs a copy; both results are non-negative and
// no larger than a.
func cosequence(a, b []Word, u0, u1, v0, v1 Word, even bool) {
	var c0, c1, c2, c3, b0, b1 Word
	for i := range a {
		x, y := a[i], b[i]
		p0, q0, p1, q1 := mulAddWW(u0, x, &c0), mulAddWW(v0, y, &c1), mulAddWW(u1, x, &c2), mulAddWW(v1, y, &c3)
		if even {
			a[i], b0 = bits.Sub64(p0, q0, b0)
			b[i], b1 = bits.Sub64(q1, p1, b1)
		} else {
			a[i], b0 = bits.Sub64(q0, p0, b0)
			b[i], b1 = bits.Sub64(p1, q1, b1)
		}
	}
}

// lehmerSimulate runs Euclid's quotient steps on the leading word of a and
// the bits of b aligned with it, for trimmed a ≥ b of at least two limbs, as
// long as Collins' condition guarantees each quotient is the one the full
// pair would produce. It returns the cosequence magnitudes of the steps it
// took, (a, b) ← ±(u0·a − v0·b, v1·b − u1·a) (cosequence), and whether
// their number is even; v0 = 0 when it could take none.
func lehmerSimulate(a, b []Word) (u0, u1, v0, v1 Word, even bool) {
	n, m := len(a), len(b)
	h := uint(bits.LeadingZeros64(a[n-1]))
	a1 := a[n-1]<<h | a[n-2]>>(WordBits-h)
	var a2 Word
	switch n - m {
	case 0:
		a2 = b[n-1]<<h | b[n-2]>>(WordBits-h)
	case 1:
		a2 = b[n-2] >> (WordBits - h)
	}
	// The loop's first pass takes no step of its own, so the cosequence it
	// returns lags the one it tests by a step.
	var u2, v2 Word
	u0, u1, u2 = 0, 1, 0
	v0, v1, v2 = 0, 0, 1
	for a2 >= v2 && a1-a2 >= v1+v2 {
		q, r := a1/a2, a1%a2
		a1, a2 = a2, r
		u0, u1, u2 = u1, u2, u1+q*u2
		v0, v1, v2 = v1, v2, v1+q*v2
		even = !even
	}
	return u0, u1, v0, v1, even
}

// LCM returns the least common multiple of x and y.
func LCM(x, y Nat) Nat {
	if x.IsZero() || y.IsZero() {
		return nil
	}
	return Mul(Div(x, GCD(x, y)), y)
}

// ModInverse returns x⁻¹ mod n and true when gcd(x, n) == 1, or nil and
// false otherwise: GCD's walk from (n, x mod n), carrying the coefficient of
// x, in one allocation of working limbs beside the result.
func ModInverse(x, n Nat) (Nat, bool) {
	x, n = trim(x), trim(n)
	if len(n) == 0 || n.IsOne() {
		return nil, false
	}
	inv, ok := modInverseInto(x, n, make([]Word, modInverseWords(len(x), len(n))))
	if !ok {
		return nil, false
	}
	return inv.Clone(), true
}

// modInverseWords is the work modInverseInto needs for an lx-limb x modulo a
// k-limb n: the pair, the two coefficients, a quotient, its product with one,
// and a division buffer that also takes x's first reduction.
func modInverseWords(lx, k int) int { return 7*k + 5 + max(lx, k) + k + 1 }

// modInverseInto is ModInverse for trimmed x and n ≥ 2 on caller-held work of
// modInverseWords limbs, which it zeroes and the result aliases; it allocates
// nothing.
func modInverseInto(x, n Nat, w []Word) (Nat, bool) {
	k := len(n)
	w = w[:modInverseWords(len(x), k)]
	clear(w)
	take := func(n int) []Word {
		s := w[:n:n]
		w = w[n:]
		return s
	}
	e := euclid{a: take(k), b: take(k), ua: take(k + 1), ub: take(k + 1), q: take(k + 1), t: take(2*k + 2)}
	e.div = w
	_, xr := divInto(nil, e.div, x, n)
	if len(xr) == 0 {
		return nil, false
	}
	e.load(n, xr)
	e.ub[0], e.lu, e.neg = 1, 1, true // n = 0·x, x = 1·x
	e.run()
	if e.la != 1 || e.a[0] != 1 {
		return nil, false
	}
	inv := trim(e.ua)
	if e.neg {
		z := e.ub[:k] // free once the walk is done
		subInto(z, n, inv)
		return trim(z), true
	}
	return inv, true
}
