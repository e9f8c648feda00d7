package mpint

import (
	"sync"
	"unsafe"
)

// Inside a multiply chain, on hosts with AVX-512 IFMA, a long modulus leaves
// the 64-bit limbs for 52-bit digits — the width VPMADD52 multiplies — held
// one a word, eight a ZMM register. amm52 (amm52_amd64.s) is the Montgomery
// multiply of that representation; this file owns the representation: when a
// context uses it, its constants, and the way into and out of it. Nothing
// outside expMont sees a digit.

const (
	digitBits = 52
	digitMask = 1<<digitBits - 1

	// ifmaMinLimbs is the modulus size, in limbs, from which an
	// exponentiation chain runs on amm52. BenchmarkExpKernels, rows (adx) →
	// digits, a whole Exp with the way in and out, best of twelve runs:
	// half-width exponent 43.7 → 23.9 µs at 8 limbs, 138 → 52.9 at 12, 313 →
	// 106 at 16, 1.93 → 0.41 ms at 32, 13.4 → 2.83 ms at 64; full-width 114 →
	// 54.2 µs at 8, 4.00 → 0.86 ms at 32, 25.8 → 5.14 ms at 64; the 30-bit
	// exponent of a ciphertext-scalar product 6.5 → 4.2 µs at 8, 58.8 → 17.1 at
	// 32, 178 → 53.2 at 64. 8 is not the crossover — with the constant lowered
	// in a scratch copy the digits still win at 7, 6 and 4 limbs (52.1 → 21.2,
	// 56.4 → 20.9, 19.1 → 10.0 µs) — it is the smallest modulus a deployed key
	// produces (a 1,024-bit key's primes, BenchmarkIsPrime512 2.22 → 1.02 ms).
	// Under it are 128- to 448-bit test moduli, most of them short of amm52's
	// two-register minimum, and the 128-bit key's, whose one- and two-limb
	// moduli run on mul1/mul2 (regMaxLimbs).
	ifmaMinLimbs = 8

	// maxLanes52 is the widest operand amm52 takes: its accumulator is
	// register-resident, 26 ZMM registers of 8 digits — moduli up to 10,814
	// bits. (The deferred carries alone would allow 512 lanes: a lane gains
	// under 4·2⁵² a row.) Longer moduli stay on the rows.
	maxLanes52 = 208
)

// mont52 is a context's radix-2⁵² side: d digits with R₅₂ = 2^(52d) > 4n, so
// a product of operands below 2n comes out below 2n and no multiply of the
// chain subtracts; the vectors are padded to whole registers.
type mont52 struct {
	d  int
	k0 Word   // −n⁻¹ mod 2⁵²
	n  []Word // the modulus
	rr []Word // R₅₂² mod n: multiplying by it enters the domain
	r  []Word // R₆₄ mod n: multiplying by it leaves for the limbs' domain
}

// chain52 is the lazily built mont52 of a Mont: built by the first chain, so
// a context that only multiplies never pays for it; and its eight-lane copy
// (mont52x8.go), built by the first lane group.
type chain52 struct {
	once  sync.Once
	f     *mont52
	once8 sync.Once
	l8    *lanes52
}

// ifma returns the context's radix-2⁵² side, nil where its chains stay on the
// limbs: no IFMA on this host, a modulus under ifmaMinLimbs, or one too long
// for amm52's registers. The first two are the answer for most contexts and
// inline into expMont as two compares.
func (m *Mont) ifma() *mont52 {
	if !useIFMA || m.k < ifmaMinLimbs {
		return nil
	}
	return m.c52.get(m)
}

func (c *chain52) get(m *Mont) *mont52 {
	c.once.Do(func() {
		d := (m.n.BitLen() + 2 + digitBits - 1) / digitBits
		lanes := (d + 7) &^ 7
		if lanes > maxLanes52 {
			return
		}
		buf := align64(make([]Word, 3*lanes+7))
		f := &mont52{d: d, k0: m.n0inv & digitMask, n: buf[:lanes], rr: buf[lanes : 2*lanes], r: buf[2*lanes : 3*lanes]}
		toDigits(f.n, m.n, 1)
		// R₅₂² = R₆₄²·2^(2s) mod n with s = 52d − 64k: where s ≥ 0 (every modulus
		// whose top limb has a dozen bits or more) that is the R₆₄² the context
		// holds shifted up and a division with a two-limb quotient, a tenth of
		// the full-width division of 2^(104d) — IsPrime builds a context a
		// candidate, and most candidates run one chain.
		x, up := One(), 2*digitBits*d
		if s := digitBits*d - WordBits*m.k; s >= 0 {
			x, up = m.rr, 2*s
		}
		toDigits(f.rr, Mod(Lsh(x, uint(up)), m.n), 1)
		toDigits(f.r, m.one, 1)
		c.f = f
	})
	return c.f
}

// align64 drops up to 7 words off the front of buf so that it starts on a
// 64-byte boundary: a ZMM load that straddles a cache line costs two. Only
// speed depends on it.
func align64(buf []Word) []Word {
	return buf[-uintptr(unsafe.Pointer(unsafe.SliceData(buf)))&63/8:]
}

// toDigits writes x as 52-bit digits into dst[0], dst[stride], dst[2·stride],
// … to the end of dst — stride 1 for a chain's own vectors, 8 for one lane of
// a transposed group (mont52x8.go); x must fit them.
func toDigits(dst, x []Word, stride int) {
	for j, at := 0, 0; at < len(dst); j, at = j+1, at+stride {
		i, s := j*digitBits/WordBits, uint(j*digitBits%WordBits)
		var v Word
		if i < len(x) {
			v = x[i] >> s
			if s > WordBits-digitBits && i+1 < len(x) {
				v |= x[i+1] << (WordBits - s)
			}
		}
		dst[at] = v & digitMask
	}
}

// fromDigits writes the value of the normalised digits x[0], x[stride], … to
// the end of x into the limbs z, which must be able to hold it.
func fromDigits(z, x []Word, stride int) {
	clear(z)
	for j, at := 0, 0; at < len(x); j, at = j+1, at+stride {
		v := x[at]
		if v == 0 {
			continue
		}
		i, s := j*digitBits/WordBits, uint(j*digitBits%WordBits)
		z[i] |= v << s
		if s > WordBits-digitBits && i+1 < len(z) {
			z[i+1] |= v >> (WordBits - s)
		}
	}
}

// expMont52 is expMont through the digits, for an exponent ≥ 2: into the
// domain with one multiply by R₅₂², the same table and the same walk of the
// schedule with amm52 as the multiply — written out a second time because the
// rows' walk calls mulInto directly, and a shared walk over a func value cost
// cohort_tree_128's 2–4-limb chains 3% — and out with one multiply by R₆₄ mod
// n, which leaves base^e·R₆₄, the limbs' Montgomery form, below 2n, and the
// one canonical reduction of the chain.
func (m *Mont) expMont52(f *mont52, base Nat, s *ExpSchedule, sc *mulScratch) Nat {
	k, lanes := m.k, len(f.n)
	sc.grow((s.maxIdx+2)*lanes + 2*k + 1 + 7)
	slab := align64(sc.slab)
	buf := func(i int) []Word { return slab[i*lanes : (i+1)*lanes : (i+1)*lanes] }
	tbl := func(i int) []Word { return buf(i + 1) }
	mul := func(dst, a, b []Word) { amm52(dst, a, b, f.n, f.d, f.k0) }
	acc := buf(0)
	toDigits(acc, base, 1)
	mul(tbl(0), acc, f.rr)
	if s.maxIdx > 0 {
		b2 := acc
		mul(b2, tbl(0), tbl(0))
		for i := 1; i <= s.maxIdx; i++ {
			mul(tbl(i), tbl(i-1), b2)
		}
	}
	first := 0
	for s.ops[first] == opSquare {
		first++
	}
	copy(acc, tbl(int(s.ops[first])))
	for _, op := range s.ops[first+1:] {
		x := acc
		if op != opSquare {
			x = tbl(int(op))
		}
		mul(acc, acc, x)
	}
	mul(acc, acc, f.r)
	out := slab[(s.maxIdx+2)*lanes:]
	z, t := out[:k:k], out[k:2*k+1]
	fromDigits(t, acc, 1)
	m.reduceOnce(z, t[:k], t[k])
	return z
}
