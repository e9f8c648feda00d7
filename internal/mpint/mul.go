package mpint

import "math/bits"

// Mul returns x * y, the O(n·m) schoolbook product: one addMulVW row a limb
// of y, at every width.
func Mul(x, y Nat) Nat {
	x, y = trim(x), trim(y)
	if len(x) == 0 || len(y) == 0 {
		return nil
	}
	z := make(Nat, len(x)+len(y))
	schoolbookInto(z, x, y)
	return trim(z)
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
