package mpint

import "math/bits"

// A modulus of one or two limbs — the primes and prime squares of a 128-bit
// key — is too short for the rows: at that width mulInto's staging, slice
// loops, trim and final subtraction cost more than the four to eight limb
// products themselves. mul1 and mul2 are the same CIOS with every value in a
// register, and expMontRegs walks a schedule with the accumulator in
// registers too. Each multiply ends in the one conditional subtraction
// reduceOnce makes, so every result is the rows' to the bit.

// regMaxLimbs is the widest modulus, in limbs, whose multiplies and chains
// run on mul1/mul2. BenchmarkExpKernels, rows → regs, a whole Exp with the way
// in and out, best of a dozen runs on the two-core reference box: half-width
// exponent 0.95 → 0.33 µs at 1 limb, 2.88 → 1.20 at 2; full-width 1.99 →
// 0.62 at 1, 5.70 → 2.23 at 2; the 30-bit exponent 1.02 → 0.31 at 1, 1.34 →
// 0.64 at 2. Bodies written out the same way for 3 and 4 limbs (tried in a
// scratch copy) also lead, 6.44 → 3.48 and 11.6 → 6.03 µs half-width, but at
// the benchmark's sizing only n² at a 128-bit key is that wide, and its one
// multiply a ciphertext addition is 2% of cohort_tree_128's CPU profile: two
// more bodies would move no end-to-end number. Loops over fixed arrays, one
// body for both widths, kept the values in memory and ran as slow as the rows.
const regMaxLimbs = 2

// useRegs says whether those moduli take mul1/mul2 at all. It is true; it is
// a variable only so that the in-package tests can run the same suites over
// the rows, as they flip useIFMA.
var useRegs = true

// limb returns limb i of x, zero past its end.
func limb(x Nat, i int) Word {
	if i < len(x) {
		return x[i]
	}
	return 0
}

// mul1 returns a·b·2⁻⁶⁴ mod n for one-limb n with −n⁻¹ mod 2⁶⁴ = ni: the
// rows' one row, which leaves t + c·2⁶⁴ below 2n for a, b < n, and one
// subtraction. The subtraction is a branch: a branch-free select lengthened
// every multiply's dependency chain and cost a chain about a quarter.
func mul1(a, b, n, ni Word) Word {
	hi, lo := bits.Mul64(a, b)
	mh, ml := bits.Mul64(lo*ni, n)
	_, c := bits.Add64(lo, ml, 0)
	t, c := bits.Add64(hi, mh, c)
	if c != 0 || t >= n {
		t -= n
	}
	return t
}

// mul2 returns a·b·2⁻¹²⁸ mod n for two-limb a = (a0, a1), b and n: the rows'
// two rows — t += a·bi, then t += mi·n for the mi that clears t's low limb,
// shifted down that limb, so t stays below 2n — and mul1's subtraction. The
// rows are written out: as a loop over the two, a chain ran 12% slower.
func mul2(a0, a1, b0, b1, n0, n1, ni Word) (Word, Word) {
	// Row 0, into t = 0.
	hi, t0 := bits.Mul64(a0, b0)
	h, l := bits.Mul64(a1, b0)
	t1, c := bits.Add64(l, hi, 0)
	t2 := h + c
	mi := t0 * ni
	hi, l = bits.Mul64(mi, n0)
	_, c = bits.Add64(l, t0, 0)
	cy := hi + c
	h, l = bits.Mul64(mi, n1)
	l, c = bits.Add64(l, t1, 0)
	h += c
	t0, c = bits.Add64(l, cy, 0)
	t1, t2 = bits.Add64(t2, h+c, 0)

	// Row 1.
	hi, l = bits.Mul64(a0, b1)
	t0, c = bits.Add64(l, t0, 0)
	cy = hi + c
	h, l = bits.Mul64(a1, b1)
	l, c = bits.Add64(l, t1, 0)
	h += c
	t1, c = bits.Add64(l, cy, 0)
	t2, top := bits.Add64(t2, h+c, 0)
	mi = t0 * ni
	hi, l = bits.Mul64(mi, n0)
	_, c = bits.Add64(l, t0, 0)
	cy = hi + c
	h, l = bits.Mul64(mi, n1)
	l, c = bits.Add64(l, t1, 0)
	h += c
	t0, c = bits.Add64(l, cy, 0)
	t1, c = bits.Add64(t2, h+c, 0)
	t2 = top + c

	d0, borrow := bits.Sub64(t0, n0, 0)
	d1, borrow := bits.Sub64(t1, n1, borrow)
	if borrow != 0 && t2 == 0 {
		return t0, t1
	}
	return d0, d1
}

// mulRegs is mulInto for a modulus of at most regMaxLimbs limbs and operands
// of at most its length. dst may alias a or b: both are read first.
func (m *Mont) mulRegs(dst, a, b Nat) Nat {
	z := dst[:m.k]
	if m.k == 1 {
		z[0] = mul1(limb(a, 0), limb(b, 0), m.n[0], m.n0inv)
	} else {
		z[0], z[1] = mul2(limb(a, 0), limb(a, 1), limb(b, 0), limb(b, 1), m.n[0], m.n[1], m.n0inv)
	}
	return trim(z)
}

// expMontRegs is expMont for a modulus of at most regMaxLimbs limbs: the same
// odd-power table, in the slab where expMont keeps it, the same walk of the
// schedule with the accumulator in registers, and the result in the same k
// limbs at the head of the slab. The walk is written out once a width,
// because a walk shared through a multiply passed in costs the call it
// exists to save.
func (m *Mont) expMontRegs(base Nat, s *ExpSchedule, sc *mulScratch) Nat {
	k := m.k
	sc.grow((s.maxIdx + 2) * k)
	out := sc.slab[:k:k]
	if k == 1 {
		out[0] = walk1(mul1(limb(base, 0), limb(m.rr, 0), m.n[0], m.n0inv), s, sc.slab[1:], m.n[0], m.n0inv)
	} else {
		x0, x1 := mul2(limb(base, 0), limb(base, 1), limb(m.rr, 0), limb(m.rr, 1), m.n[0], m.n[1], m.n0inv)
		out[0], out[1] = walk2(x0, x1, s, sc.slab[2:], m.n[0], m.n[1], m.n0inv)
	}
	return out
}

// walk1 returns x^e, for x and the result in one-limb Montgomery form, with
// the schedule's table in tbl.
func walk1(x Word, s *ExpSchedule, tbl []Word, n, ni Word) Word {
	if s.isOne {
		return x
	}
	tbl = tbl[:s.maxIdx+1]
	tbl[0] = x
	if s.maxIdx > 0 {
		x2 := mul1(x, x, n, ni)
		for i := 1; i < len(tbl); i++ {
			tbl[i] = mul1(tbl[i-1], x2, n, ni)
		}
	}
	first := 0
	for s.ops[first] == opSquare {
		first++
	}
	acc := tbl[s.ops[first]]
	for _, op := range s.ops[first+1:] {
		y := acc
		if op != opSquare {
			y = tbl[op]
		}
		acc = mul1(acc, y, n, ni)
	}
	return acc
}

// walk2 is walk1 at two limbs: x = (x0, x1), table entry i in tbl[2i:2i+2].
func walk2(x0, x1 Word, s *ExpSchedule, tbl []Word, n0, n1, ni Word) (Word, Word) {
	if s.isOne {
		return x0, x1
	}
	tbl = tbl[:2*s.maxIdx+2]
	tbl[0], tbl[1] = x0, x1
	if s.maxIdx > 0 {
		y0, y1 := mul2(x0, x1, x0, x1, n0, n1, ni)
		for i := 2; i+1 < len(tbl); i += 2 {
			tbl[i], tbl[i+1] = mul2(tbl[i-2], tbl[i-1], y0, y1, n0, n1, ni)
		}
	}
	first := 0
	for s.ops[first] == opSquare {
		first++
	}
	i := 2 * int(s.ops[first])
	a0, a1 := tbl[i], tbl[i+1]
	for _, op := range s.ops[first+1:] {
		y0, y1 := a0, a1
		if op != opSquare {
			i := 2 * int(op)
			y0, y1 = tbl[i], tbl[i+1]
		}
		a0, a1 = mul2(a0, a1, y0, y1, n0, n1, ni)
	}
	return a0, a1
}
