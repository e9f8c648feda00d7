package mpint

import "math/bits"

// karatsubaThreshold is the limb count from which multiplication switches
// from schoolbook to Karatsuba. The add/subtract passes Karatsuba pays are Go
// loops and the rows it saves are addMulVW's, so the crossover sits higher
// than the 64 limbs it had on Go rows. Two sweeps with the threshold set to
// the operand size, so that Karatsuba splits exactly once (best of seven
// alternating runs each, the box a third slower during the second): one split
// over plain schoolbook reads 1.07× and 1.25× the time at 64 limbs (3.36
// against 3.15 µs), 1.15× and 1.14× at 80, 0.99× and 1.10× at 96, 0.96× and
// 0.97× at 112 (8.9 against 9.2 µs), 0.87× and 0.91× at 128 (10.5 against
// 12.1 µs). BenchmarkMulSchoolbook8192/BenchmarkMulKaratsuba8192 are the
// 128-limb pair.
const karatsubaThreshold = 112

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

// addMulVWGo sets z += x·w for len(z) == len(x), returning the carry-out
// limb: addMulVW as a Go loop. It is the row on every host but amd64 and the
// reference the assembly bodies are fuzzed against; Mont.mulInto spells the
// same loop out for moduli too short to be worth a call per row.
func addMulVWGo(z, x []Word, w Word) Word {
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

// schoolbookInto writes the O(n·m) product of non-empty x and y into z,
// which must hold exactly len(x)+len(y) limbs and alias neither operand.
func schoolbookInto(z, x, y []Word) {
	z[len(x)] = mulAddVWW(z[:len(x)], x, y[0], 0)
	for i := 1; i < len(y); i++ {
		z[i+len(x)] = addMulVW(z[i:i+len(x)], x, y[i])
	}
}

// MulAddWordInto returns x·y + w, written into z's limbs where their capacity
// holds it (Reuse) and into fresh ones where it does not; z must alias neither
// operand.
func MulAddWordInto(z, x, y Nat, w Word) Nat {
	x, y = trim(x), trim(y)
	if len(x) == 0 || len(y) == 0 {
		z = Reuse(z, 1)
		z[0] = w
		return trim(z)
	}
	z = Reuse(z, len(x)+len(y))
	schoolbookInto(z, x, y)
	addInto(z, z, []Word{w}) // x·y + w < 2^(64·len(z)): no carry out
	return trim(z)
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
