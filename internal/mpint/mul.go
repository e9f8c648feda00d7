package mpint

import "math/bits"

// karatsubaThreshold is the limb count from which multiplication switches
// from schoolbook to Karatsuba: 64 limbs = 4096 bits, where on 64-bit limbs
// the three half-size products draw level with the add/subtract passes they
// cost (BenchmarkMulSchoolbook4096/BenchmarkMulKaratsuba4096); at 48 limbs
// schoolbook is still a fifth faster, at 128 Karatsuba a quarter.
const karatsubaThreshold = 64

// Mul returns x * y.
func Mul(x, y Nat) Nat {
	x, y = trim(x), trim(y)
	if len(x) == 0 || len(y) == 0 {
		return nil
	}
	if len(x) < karatsubaThreshold || len(y) < karatsubaThreshold {
		return mulSchoolbook(x, y)
	}
	return mulKaratsuba(x, y)
}

// mulAddVWW sets z = x·w + c for len(z) == len(x), returning the carry-out
// limb. z may alias x.
func mulAddVWW(z, x []Word, w, c Word) Word {
	for i, xi := range x {
		hi, lo := bits.Mul64(xi, w)
		var cc uint64
		z[i], cc = bits.Add64(lo, c, 0)
		c = hi + cc
	}
	return c
}

// addMulVW sets z += x·w for len(z) == len(x), returning the carry-out limb.
func addMulVW(z, x []Word, w Word) Word {
	var c Word
	for i, xi := range x {
		hi, lo := bits.Mul64(xi, w)
		lo, cc := bits.Add64(lo, z[i], 0)
		hi += cc
		z[i], cc = bits.Add64(lo, c, 0)
		c = hi + cc
	}
	return c
}

// mulWord returns x * w.
func mulWord(x Nat, w Word) Nat {
	x = trim(x)
	if len(x) == 0 || w == 0 {
		return nil
	}
	z := make(Nat, len(x)+1)
	z[len(x)] = mulAddVWW(z[:len(x)], x, w, 0)
	return trim(z)
}

// schoolbookInto writes the O(n·m) product of non-empty x and y into z,
// which must hold exactly len(x)+len(y) limbs and alias neither operand.
func schoolbookInto(z, x, y []Word) {
	z[len(x)] = mulAddVWW(z[:len(x)], x, y[0], 0)
	for i := 1; i < len(y); i++ {
		z[i+len(x)] = addMulVW(z[i:i+len(x)], x, y[i])
	}
}

// mulSchoolbook is the O(n·m) product.
func mulSchoolbook(x, y Nat) Nat {
	z := make(Nat, len(x)+len(y))
	schoolbookInto(z, x, y)
	return trim(z)
}

// mulKaratsuba splits both operands at half the shorter length and recurses:
// x = x1·B + x0, y = y1·B + y0,
// xy = x1y1·B² + ((x1+x0)(y1+y0) − x1y1 − x0y0)·B + x0y0.
// The temporaries of the recursion come out of one scratch allocation, sized
// for operands of similar length (lopsided ones spill into fresh slices).
func mulKaratsuba(x, y Nat) Nat {
	z := make(Nat, len(x)+len(y))
	karatsubaInto(z, x, y, make([]Word, 2*(len(x)+len(y))+8*bits.Len(uint(len(x)+len(y)))))
	return trim(z)
}

// carve cuts n limbs off the front of scratch, or allocates them when the
// scratch has run out.
func carve(scratch []Word, n int) (buf, rest []Word) {
	if n > len(scratch) {
		return make([]Word, n), scratch
	}
	return scratch[:n], scratch[n:]
}

// karatsubaInto writes x·y into z (exactly len(x)+len(y) limbs, aliasing
// neither operand). The two outer products land directly in z's low and high
// halves; the sums and the middle product are carved from scratch.
func karatsubaInto(z, x, y, scratch []Word) {
	if len(x) < len(y) {
		x, y = y, x
	}
	if len(y) < karatsubaThreshold {
		schoolbookInto(z, x, y)
		return
	}
	h := len(y) / 2
	x0, x1 := x[:h], x[h:]
	y0, y1 := y[:h], y[h:]
	karatsubaInto(z[:2*h], x0, y0, scratch)
	karatsubaInto(z[2*h:], x1, y1, scratch)

	// sx = x0+x1, sy = y0+y1, each one limb longer than its high half.
	sx, scratch := carve(scratch, len(x1)+1)
	sy, scratch := carve(scratch, len(y1)+1)
	sx[len(x1)] = addInto(sx, x1, x0)
	sy[len(y1)] = addInto(sy, y1, y0)
	mid, scratch := carve(scratch, len(sx)+len(sy))
	karatsubaInto(mid, sx, sy, scratch)
	// mid −= x0y0 + x1y1. The true middle term is non-negative, so both
	// subtractions end without a borrow.
	subInto(mid, mid, z[:2*h])
	subInto(mid, mid, z[2*h:])
	// z += mid·B. The middle term is at most len(z)−h limbs wide, and the
	// full product fits z, so the add cannot carry out.
	mid = trim(mid)
	addInto(z[h:], z[h:], mid)
}

// Sqr returns x².
func Sqr(x Nat) Nat { return Mul(x, x) }
