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

// GCD returns the greatest common divisor of x and y (binary GCD).
func GCD(x, y Nat) Nat {
	x, y = trim(x), trim(y)
	if len(x) == 0 {
		return y.Clone()
	}
	if len(y) == 0 {
		return x.Clone()
	}
	return gcdInPlace(x.Clone(), y.Clone())
}

// gcdInPlace is the binary GCD on two owned, trimmed, non-zero buffers: the
// subtract-and-shift loop runs in the operands' own limbs, and the result is
// one of the two buffers, re-extended up to its capacity. gcd(x, y)·2^shift
// divides both inputs, so shifting the common power of two back in never
// outgrows the buffer the odd part ended up in.
func gcdInPlace(x, y Nat) Nat {
	sx, sy := x.TrailingZeroBits(), y.TrailingZeroBits()
	shift := sx
	if sy < shift {
		shift = sy
	}
	x, y = rshInPlace(x, sx), rshInPlace(y, sy)
	for {
		// Both odd. Keep x ≤ y, replace y by the odd part of y − x.
		if Cmp(x, y) > 0 {
			x, y = y, x
		}
		subInto(y, y, x)
		y = trim(y)
		if len(y) == 0 {
			break
		}
		y = rshInPlace(y, y.TrailingZeroBits())
	}
	// x << shift, within x's own backing array.
	words, b := int(shift/WordBits), shift%WordBits
	z := x[:(x.BitLen()+int(shift)+WordBits-1)/WordBits]
	copy(z[words:], x)
	for i := words + len(x); i < len(z); i++ {
		z[i] = 0
	}
	for i := 0; i < words; i++ {
		z[i] = 0
	}
	if b != 0 {
		lshInto(z[words:], z[words:], b)
	}
	return z
}

// rshInPlace shifts trimmed x right by s bits within its own limbs and
// returns the trimmed result (a prefix of x).
func rshInPlace(x Nat, s uint) Nat {
	words := int(s / WordBits)
	if words > 0 {
		x = x[:copy(x, x[words:])]
	}
	if b := s % WordBits; b != 0 {
		rshInto(x, x, b)
	}
	return trim(x)
}

// LCM returns the least common multiple of x and y.
func LCM(x, y Nat) Nat {
	if x.IsZero() || y.IsZero() {
		return nil
	}
	return Mul(Div(x, GCD(x, y)), y)
}

// ModInverse returns x⁻¹ mod n and true when gcd(x, n) == 1, or nil and
// false otherwise. It uses the extended Euclidean algorithm with signed
// bookkeeping carried in (value, sign) pairs since Nat is unsigned.
func ModInverse(x, n Nat) (Nat, bool) {
	x, n = trim(x), trim(n)
	if len(n) == 0 || n.IsOne() {
		return nil, false
	}
	x = Mod(x, n)
	if x.IsZero() {
		return nil, false
	}
	// Invariants: r0 = s0*x mod n, r1 = s1*x mod n, with signs g0, g1.
	r0, r1 := n.Clone(), x.Clone()
	s0, s1 := Zero(), One()
	g0, g1 := 1, 1
	for !r1.IsZero() {
		q, r := DivMod(r0, r1)
		r0, r1 = r1, r
		// ns = s0 - q*s1 with explicit sign tracking (sign 0 means value 0).
		qs1 := Mul(q, s1)
		var ns Nat
		var ng int
		switch {
		case s0.IsZero():
			ns, ng = qs1, -g1
		case qs1.IsZero():
			ns, ng = s0, g0
		case g0 == g1:
			d, sign := CmpSub(s0, qs1)
			ns, ng = d, sign*g0
		default:
			ns, ng = Add(s0, qs1), g0
		}
		if ns.IsZero() {
			ng = 0
		}
		s0, s1, g0, g1 = s1, ns, g1, ng
	}
	if !r0.IsOne() {
		return nil, false
	}
	if g0 < 0 {
		return Sub(n, Mod(s0, n)), true
	}
	return Mod(s0, n), true
}
