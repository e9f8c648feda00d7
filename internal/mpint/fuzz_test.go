package mpint

import (
	"bytes"
	"math/big"
	"slices"
	"testing"
)

// TestMixedOpsDifferential drives long random sequences of mixed operations
// through both mpint and math/big, comparing after every step — the closest
// a deterministic suite gets to fuzzing the arithmetic core.
func TestMixedOpsDifferential(t *testing.T) {
	r := NewRNG(0xF00D)
	for seq := 0; seq < 20; seq++ {
		x := randNat(r, 256)
		bx := toBig(x)
		for step := 0; step < 150; step++ {
			y := randNat(r, 200)
			by := toBig(y)
			op := r.Intn(8)
			switch op {
			case 0:
				x = Add(x, y)
				bx.Add(bx, by)
			case 1:
				if Cmp(x, y) >= 0 {
					x = Sub(x, y)
					bx.Sub(bx, by)
				}
			case 2:
				x = Mul(x, y)
				bx.Mul(bx, by)
			case 3:
				if !y.IsZero() {
					x = Div(x, y)
					bx.Quo(bx, by)
				}
			case 4:
				if !y.IsZero() {
					x = Mod(x, y)
					bx.Mod(bx, by)
				}
			case 5:
				s := uint(r.Intn(64))
				x = Lsh(x, s)
				bx.Lsh(bx, s)
			case 6:
				s := uint(r.Intn(64))
				x = Rsh(x, s)
				bx.Rsh(bx, s)
			case 7:
				x = GCD(x, y)
				bx.GCD(nil, nil, bx, by)
			}
			if toBig(x).Cmp(bx) != 0 {
				t.Fatalf("seq %d step %d op %d diverged: mpint=%s big=%s", seq, step, op, x, bx)
			}
			// Keep the working value from exploding (mul chains).
			if x.BitLen() > 4096 {
				x = Rsh(x, uint(x.BitLen()-512))
				bx.Rsh(bx, uint(bx.BitLen()-512))
			}
		}
	}
}

// TestModExpCrossCheckLargeSweep sweeps modulus widths around word
// boundaries where limb logic is most fragile — the 64-bit limb's and, from
// ifmaMinLimbs up, the 52-bit digit's: bit lengths 0, 1, 50 and 51 mod 52
// (whole digits, one bit into a digit, and the two lengths whose two spare
// bits under R₅₂ = 2^(52d) spill into a new digit) and digit counts of 8j and
// 8j+1 (a full top register, and one lane of the next), under every body.
func TestModExpCrossCheckLargeSweep(t *testing.T) {
	r := NewRNG(0xBEEF)
	for _, bits := range []int{33, 63, 64, 65, 95, 96, 97, 127, 128, 129, 255, 257,
		466, 467, 468, 469, // 9·52: the first digit counts past ifmaMinLimbs−1 limbs
		518, 519, 520, 521, // 10·52
		778, 779, 780, 781, 830, 831, 832, 833, // d = 15|16 (two full registers), 16|17
		1246, 1247, 1248, 1249, // d = 24|25
		2078, 2079, 2080, 2081, // d = 40|41
	} {
		n := r.RandBits(bits)
		n[0] |= 1
		if n.IsOne() {
			continue
		}
		forEachBody(t, func() {
			m := NewMont(n)
			for i := 0; i < 6; i++ {
				base := r.RandBelow(n)
				e := r.RandBits(1 + r.Intn(min(bits, 300)))
				got := m.Exp(base, e)
				want := new(big.Int).Exp(toBig(base), toBig(e), toBig(n))
				if toBig(got).Cmp(want) != 0 {
					t.Fatalf("bits=%d: Exp mismatch", bits)
				}
			}
		})
	}
}

// TestChainEdgeOperands runs the operands a chain is most likely to get wrong
// through every entry into one — Exp, ExpSched on a precompiled schedule, and
// the in-package runSched that takes a base at or above the modulus — under
// every body: bases 0, 1, n−1, n, n+1 and 2n+3, exponents 0, 1, 2, 3 and
// 2¹³⁰−1 (all ones), on random moduli either side of ifmaMinLimbs and on moduli of
// all-ones limbs, which leave R₅₂ the fewest spare bits a limb count can
// (n = 2^(64k)−1 against 2^(52d) ≥ 4n) and make every digit of n the largest.
func TestChainEdgeOperands(t *testing.T) {
	r := NewRNG(0xED6E)
	for _, limbs := range kernelLimbs {
		allOnes := make(Nat, limbs)
		for i := range allOnes {
			allOnes[i] = ^Word(0)
		}
		for _, n := range []Nat{randOdd(r, 64*limbs), allOnes, AddWord(Lsh(One(), uint(64*limbs-1)), 1)} {
			bn := toBig(n)
			bases := []Nat{Zero(), One(), SubWord(n, 1), n, AddWord(n, 1), AddWord(Lsh(n, 1), 3), r.RandBelow(n)}
			exps := []Nat{Zero(), One(), FromUint64(2), FromUint64(3), SubWord(Lsh(One(), 130), 1)}
			forEachBody(t, func() {
				m := NewMont(n)
				for _, e := range exps {
					sched := CompileExpAuto(e)
					for _, base := range bases {
						want := new(big.Int).Exp(toBig(base), toBig(e), bn)
						sc := m.getScratch()
						viaSched := m.runSched(base, sched, sc)
						m.putScratch(sc)
						for name, got := range map[string]Nat{"Exp": m.Exp(base, e), "runSched": viaSched} {
							if toBig(got).Cmp(want) != 0 || len(got) != len(trim(got)) {
								t.Fatalf("%d limbs: %s(%s, %s) mod %s = %s, want %s", limbs, name, base, e, n, got, want)
							}
						}
						if Cmp(base, n) < 0 {
							if got := m.ExpSched(base, sched); toBig(got).Cmp(want) != 0 {
								t.Fatalf("%d limbs: ExpSched(%s, %s) mod %s = %s, want %s", limbs, base, e, n, got, want)
							}
						}
					}
				}
			})
		}
	}
}

// Differential fuzz targets. Every arithmetic kernel is checked against
// math/big. Operands arrive as big-endian bytes; the seed corpus sits on the
// limb boundaries where carry and trim logic is most fragile.

// boundaryOperands returns seed operands at the limb boundaries of both the
// host (64-bit) and the modelled (32-bit) word: widths one under, at and one
// over 32/64/128 bits and at odd 32-bit word counts, each as all-ones limbs,
// as the top bit alone, and as an odd mid-range pattern.
func boundaryOperands() [][]byte {
	var out [][]byte
	for _, bits := range []int{31, 32, 33, 63, 64, 65, 95, 96, 97, 127, 128, 129, 160, 224} {
		ones := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(bits)), big.NewInt(1))
		top := new(big.Int).Lsh(big.NewInt(1), uint(bits-1))
		mid := new(big.Int).Or(top, new(big.Int).Rsh(ones, uint(bits/2)))
		out = append(out, ones.Bytes(), top.Bytes(), mid.Or(mid, big.NewInt(1)).Bytes())
	}
	return out
}

// zeroMiddleLimb is an odd 192-bit modulus whose middle 64-bit limb (and so
// two of its six 32-bit words) is zero.
var zeroMiddleLimb = append(append([]byte{0x80, 0, 0, 0, 0, 0, 0, 1}, make([]byte, 8)...), 0xFF, 0, 0, 0, 0, 0, 0, 0x0D)

// kernelLimbs are the modulus sizes the Montgomery targets seed above the
// boundary operands: every size up to one past the widest that runs on
// mul1/mul2, either side of the size whose rows go through addMulVW and whose
// chains go through amm52 (one threshold today, two constants), one limb past
// it (a row that is all tail after one unrolled block), the same pair at the
// squaring threshold, and the sizes of a 2,048-bit key's p² and n² with the
// limb past the first (41 digits: one lane of a sixth register).
var kernelLimbs = distinct(1, regMaxLimbs, regMaxLimbs+1, ifmaMinLimbs-1, ifmaMinLimbs, ifmaMinLimbs+1, rowKernelMin, rowKernelMin+1, sqrMinLimbs, sqrMinLimbs+1, 32, 33, 64)

func distinct(v ...int) []int {
	slices.Sort(v)
	return slices.Compact(v)
}

// fuzzModulusBytes caps a fuzzed modulus two limbs past the largest seed, so
// every multiply path — spelled-out rows, mulCIOS, sqrCIOS, and amm52 from two
// registers of digits to ten — is within the fuzzer's reach.
const fuzzModulusBytes = 8 * (64 + 2)

// fuzzModulus turns fuzz bytes into an odd modulus ≥ 3, or nil.
func fuzzModulus(nb []byte) Nat {
	if len(nb) > fuzzModulusBytes {
		nb = nb[:fuzzModulusBytes]
	}
	n := FromBytes(nb)
	if len(n) == 0 {
		return nil
	}
	n[0] |= 1
	if n.IsOne() {
		return nil
	}
	return n
}

// underEachBody turns a three-operand fuzz function into one that runs it
// under every addMulVW body, so the Montgomery targets hold each body to the
// same corpus.
func underEachBody(fn func(t *testing.T, a, b, c []byte)) func(*testing.T, []byte, []byte, []byte) {
	return func(t *testing.T, a, b, c []byte) { forEachBody(t, func() { fn(t, a, b, c) }) }
}

func FuzzMontMul(f *testing.F) {
	ops := boundaryOperands()
	for i, nb := range ops {
		f.Add(nb, ops[(i+1)%len(ops)], ops[(i+5)%len(ops)])
		f.Add(nb, nb, []byte{1}) // a ≡ 0 after the low bit is forced; b = 1
	}
	f.Add(zeroMiddleLimb, boundaryOperands()[30], boundaryOperands()[33])
	for _, limbs := range kernelLimbs {
		f.Add(bytes.Repeat([]byte{0xFF}, 8*limbs), bytes.Repeat([]byte{0xFE}, 8*limbs), bytes.Repeat([]byte{0xA5}, 8*limbs-1))
	}
	f.Fuzz(underEachBody(func(t *testing.T, nb, ab, bb []byte) {
		n := fuzzModulus(nb)
		if n == nil {
			return
		}
		bn := toBig(n)
		m := NewMont(n)
		nm1 := SubWord(n, 1)
		a, b := Mod(FromBytes(ab), n), Mod(FromBytes(bb), n)
		rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), uint(64*len(n))), bn)
		for _, pair := range [][2]Nat{{a, b}, {a, a}, {nm1, nm1}, {nm1, One()}, {a, nm1}} {
			x, y := pair[0], pair[1]
			want := new(big.Int).Mul(toBig(x), toBig(y))
			want.Mod(want, bn)
			// Radix-independent: through Montgomery form and back.
			got := m.FromMont(m.Mul(m.ToMont(x), m.ToMont(y)))
			if toBig(got).Cmp(want) != 0 {
				t.Fatalf("%s·%s mod %s = %s, math/big says %s", x, y, n, got, want)
			}
			// The same product with one operand in Montgomery form, on scratch.
			if got := m.ModMulInto(nil, x, y); toBig(got).Cmp(want) != 0 || len(got) != len(trim(got)) {
				t.Fatalf("ModMulInto(%s, %s) mod %s = %s, math/big says %s", x, y, n, got, want)
			}
			// The raw kernel: x·y·R⁻¹ at the host radix R = 2^(64k).
			raw := m.Mul(x, y)
			wantRaw := new(big.Int).Mul(toBig(x), toBig(y))
			wantRaw.Mul(wantRaw, rInv).Mod(wantRaw, bn)
			if toBig(raw).Cmp(wantRaw) != 0 {
				t.Fatalf("Mul(%s, %s) mod %s = %s, want %s", x, y, n, raw, wantRaw)
			}
			// In place: the destination aliasing an operand.
			sc := m.getScratch()
			dst := make(Nat, m.k)
			copy(dst, x)
			if in := m.mulInto(dst, dst, y, sc); Cmp(in, raw) != 0 {
				t.Fatalf("in-place Mul(%s, %s) mod %s = %s, want %s", x, y, n, in, raw)
			}
			m.putScratch(sc)
		}
	}))
}

func FuzzModExp(f *testing.F) {
	ops := boundaryOperands()
	for i, nb := range ops {
		f.Add(nb, ops[(i+2)%len(ops)], ops[(i+7)%len(ops)])
	}
	f.Add(zeroMiddleLimb, []byte{2}, zeroMiddleLimb)
	f.Add([]byte{0x10, 0x01}, []byte{0xFF}, []byte{0}) // exponent 0
	f.Add([]byte{0x10, 0x01}, []byte{0xFF}, []byte{1}) // exponent 1
	for _, limbs := range kernelLimbs {
		f.Add(bytes.Repeat([]byte{0xFF}, 8*limbs), bytes.Repeat([]byte{0xFE}, 8*limbs), bytes.Repeat([]byte{0xA5}, 9))
	}
	f.Fuzz(underEachBody(func(t *testing.T, nb, baseb, eb []byte) {
		if len(eb) > 48 {
			eb = eb[:48]
		}
		base, e := FromBytes(baseb), FromBytes(eb)
		if len(base) > 40 {
			base = base[:40]
		}
		// Any modulus ≥ 1, even ones included, through the package entry point.
		if nAny := FromBytes(nb); !nAny.IsZero() && len(nb) <= 160 {
			want := new(big.Int).Exp(toBig(base), toBig(e), toBig(nAny))
			if got := ModExp(base, e, nAny); toBig(got).Cmp(want) != 0 {
				t.Fatalf("ModExp(%s, %s, %s) = %s, want %s", base, e, nAny, got, want)
			}
		}
		n := fuzzModulus(nb)
		if n == nil {
			return
		}
		m := NewMont(n)
		want := new(big.Int).Exp(toBig(base), toBig(e), toBig(n))
		got := m.Exp(base, e)
		if toBig(got).Cmp(want) != 0 {
			t.Fatalf("%s^%s mod %s = %s, math/big says %s", base, e, n, got, want)
		}
		for w := uint(1); w <= 6; w++ {
			if gw := m.ExpWindow(base, e, w); Cmp(gw, got) != 0 {
				t.Fatalf("%s^%s mod %s at window %d = %s, want %s", base, e, n, w, gw, got)
			}
		}
	}))
}

func FuzzDivMod(f *testing.F) {
	ops := boundaryOperands()
	for i, xb := range ops {
		f.Add(append(append([]byte{}, xb...), ops[(i+3)%len(ops)]...), ops[(i+1)%len(ops)])
		f.Add(xb, xb)
	}
	f.Add(bytes.Repeat([]byte{0xFF}, 1000), bytes.Repeat([]byte{0xFF}, 936)) // 125×117 limbs, every bit set
	f.Add(append([]byte{0x80}, make([]byte, 31)...), []byte{0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		if len(xb) > 1024 || len(yb) > 1024 {
			return
		}
		x, y := FromBytes(xb), FromBytes(yb)
		bx, by := toBig(x), toBig(y)
		if p := Mul(x, y); toBig(p).Cmp(new(big.Int).Mul(bx, by)) != 0 {
			t.Fatalf("%s·%s = %s", x, y, p)
		}
		if s := Add(x, y); toBig(s).Cmp(new(big.Int).Add(bx, by)) != 0 {
			t.Fatalf("%s+%s = %s", x, y, s)
		}
		if bx.Cmp(by) >= 0 {
			if d := Sub(x, y); toBig(d).Cmp(new(big.Int).Sub(bx, by)) != 0 {
				t.Fatalf("%s−%s = %s", x, y, d)
			}
		}
		if y.IsZero() {
			return
		}
		q, r := DivMod(x, y)
		wq, wr := new(big.Int).QuoRem(bx, by, new(big.Int))
		if toBig(q).Cmp(wq) != 0 || toBig(r).Cmp(wr) != 0 {
			t.Fatalf("%s / %s = %s rem %s, want %s rem %s", x, y, q, r, wq, wr)
		}
		if len(q) != len(trim(q)) || len(r) != len(trim(r)) {
			t.Fatalf("%s / %s: untrimmed quotient or remainder", x, y)
		}
	})
}

func FuzzGCDModInverse(f *testing.F) {
	ops := boundaryOperands()
	for i, xb := range ops {
		f.Add(xb, ops[(i+4)%len(ops)])
		f.Add(append(append([]byte{}, xb...), 0, 0, 0, 0, 0, 0, 0, 0, 0), append(append([]byte{}, xb...), 0, 0, 0)) // shared powers of two
	}
	f.Add([]byte{1}, zeroMiddleLimb)
	f.Add([]byte{0}, []byte{7})
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		if len(xb) > 256 || len(yb) > 256 {
			return
		}
		x, y := FromBytes(xb), FromBytes(yb)
		bx, by := toBig(x), toBig(y)
		g := GCD(x, y)
		if want := new(big.Int).GCD(nil, nil, bx, by); toBig(g).Cmp(want) != 0 {
			t.Fatalf("gcd(%s, %s) = %s, want %s", x, y, g, want)
		}
		if len(g) != len(trim(g)) {
			t.Fatalf("gcd(%s, %s) untrimmed", x, y)
		}
		if toBig(x).Cmp(bx) != 0 || toBig(y).Cmp(by) != 0 {
			t.Fatal("GCD clobbered an input")
		}
		inv, ok := ModInverse(x, y)
		want := new(big.Int)
		if by.Cmp(big.NewInt(1)) > 0 {
			want = want.ModInverse(bx, by)
		} else {
			want = nil
		}
		if ok != (want != nil) {
			t.Fatalf("ModInverse(%s, %s) ok=%v, math/big has inverse: %v", x, y, ok, want != nil)
		}
		if ok && toBig(inv).Cmp(want) != 0 {
			t.Fatalf("ModInverse(%s, %s) = %s, want %s", x, y, inv, want)
		}
	})
}

// euclidSeeds are operand pairs that steer Lehmer's walk down each of its
// branches: consecutive Fibonacci numbers (every quotient 1, so the leading
// words' simulation runs longest and Collins' condition stops it at its edge),
// a pair whose lengths differ by more than a limb (a division step with a wide
// quotient), a pair one limb apart, equal values, a pair sharing a large power
// of two, and pairs that reach the one-word tail at once.
func euclidSeeds() [][2][]byte {
	fa, fb := big.NewInt(1), big.NewInt(1)
	var fibs [][2][]byte
	for i := 2; i < 400; i++ {
		fa, fb = fb, new(big.Int).Add(fa, fb)
		if i%90 == 0 {
			fibs = append(fibs, [2][]byte{fb.Bytes(), fa.Bytes()})
		}
	}
	long := new(big.Int).Lsh(big.NewInt(0x1234567), 700)
	long.Add(long, big.NewInt(99))
	return append(fibs,
		[2][]byte{long.Bytes(), {0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03}},
		[2][]byte{long.Bytes(), new(big.Int).Rsh(long, 64+7).Bytes()},
		[2][]byte{boundaryOperands()[30], boundaryOperands()[30]},
		[2][]byte{new(big.Int).Lsh(long, 300).Bytes(), new(big.Int).Lsh(big.NewInt(3), 320).Bytes()},
		[2][]byte{{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, {0x02}},
		[2][]byte{zeroMiddleLimb, {0x07}},
	)
}

// FuzzGCD holds the in-place gcd the nonce draw runs (gcdInto) to math/big:
// the value, the coprimality decision a nonce is accepted or redrawn on, its
// operands left as they were, and not a word written outside the work buffer
// it is given — exactly gcdWords limbs, fenced by guard words on both sides.
func FuzzGCD(f *testing.F) {
	for _, s := range euclidSeeds() {
		f.Add(s[0], s[1])
	}
	ops := boundaryOperands()
	for i, xb := range ops {
		f.Add(xb, ops[(i+7)%len(ops)])
	}
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		if len(xb) > 512 || len(yb) > 512 {
			return
		}
		x, y := FromBytes(xb), FromBytes(yb)
		if Cmp(x, y) < 0 {
			x, y = y, x
		}
		if len(y) == 0 {
			return
		}
		bx, by := toBig(x), toBig(y)
		const guard = 0x6A6A6A6A6A6A6A6A
		fence := make([]Word, gcdWords(len(x))+2)
		for i := range fence {
			fence[i] = guard
		}
		work := fence[1 : len(fence)-1 : len(fence)-1]
		g := gcdInto(x, y, work)
		want := new(big.Int).GCD(nil, nil, bx, by)
		if toBig(g).Cmp(want) != 0 || len(g) != len(trim(g)) {
			t.Fatalf("gcd(%s, %s) = %s, want %s", x, y, g, want)
		}
		if g.IsOne() != (want.Cmp(big.NewInt(1)) == 0) {
			t.Fatalf("gcd(%s, %s): coprimality decided %v", x, y, g.IsOne())
		}
		if fence[0] != guard || fence[len(fence)-1] != guard {
			t.Fatalf("gcd(%s, %s) wrote outside its work", x, y)
		}
		if toBig(x).Cmp(bx) != 0 || toBig(y).Cmp(by) != 0 {
			t.Fatal("gcd clobbered an operand")
		}
	})
}

// FuzzModInverse holds ModInverse to math/big on moduli of any parity and
// operands of any size against them — past the modulus, zero, one — with the
// Euclid seeds that exercise its division steps, where the coefficient takes a
// multi-limb quotient, and its one-word tail: the inverse or its absence, a
// canonical residue below n, and both operands left as they were.
func FuzzModInverse(f *testing.F) {
	for _, s := range euclidSeeds() {
		f.Add(s[1], s[0])
		f.Add(s[0], s[1])
	}
	f.Add([]byte{0}, []byte{9})
	f.Add([]byte{1}, []byte{1})
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{2})
	f.Fuzz(func(t *testing.T, xb, nb []byte) {
		if len(xb) > 512 || len(nb) > 512 {
			return
		}
		x, n := FromBytes(xb), FromBytes(nb)
		bx, bn := toBig(x), toBig(n)
		inv, ok := ModInverse(x, n)
		var want *big.Int
		if bn.Cmp(big.NewInt(1)) > 0 {
			want = new(big.Int).ModInverse(bx, bn)
		}
		if ok != (want != nil) {
			t.Fatalf("ModInverse(%s, %s) ok=%v, math/big has an inverse: %v", x, n, ok, want != nil)
		}
		if ok && (toBig(inv).Cmp(want) != 0 || len(inv) != len(trim(inv))) {
			t.Fatalf("ModInverse(%s, %s) = %s, want %s", x, n, inv, want)
		}
		if toBig(x).Cmp(bx) != 0 || toBig(n).Cmp(bn) != 0 {
			t.Fatal("ModInverse clobbered an operand")
		}
	})
}

func FuzzBytesRoundTrip(f *testing.F) {
	for _, b := range boundaryOperands() {
		f.Add(b)
		f.Add(append([]byte{0, 0, 0}, b...)) // leading zero bytes
	}
	f.Add([]byte{})
	f.Add(zeroMiddleLimb)
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 512 {
			return
		}
		x := FromBytes(b)
		want := new(big.Int).SetBytes(b)
		// Compare limb by limb, not through Bytes: Σ x[i]·2^(64i).
		viaLimbs := new(big.Int)
		for i := len(x) - 1; i >= 0; i-- {
			viaLimbs.Lsh(viaLimbs, WordBits).Or(viaLimbs, new(big.Int).SetUint64(x[i]))
		}
		if viaLimbs.Cmp(want) != 0 || len(x) != len(trim(x)) {
			t.Fatalf("FromBytes(%x) = %v", b, []Word(x))
		}
		if got := x.Bytes(); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("Bytes = %x, want %x", got, want.Bytes())
		}
		if got := x.AppendBytes([]byte{0xAB}); got[0] != 0xAB || !bytes.Equal(got[1:], want.Bytes()) {
			t.Fatalf("AppendBytes = %x", got)
		}
		if x.BitLen() != want.BitLen() {
			t.Fatalf("BitLen = %d, want %d", x.BitLen(), want.BitLen())
		}
		if s := x.String(); s != want.String() {
			t.Fatalf("String = %s, want %s", s, want)
		}
	})
}

// fuzzPrime turns fuzz bytes into the largest odd prime at or below their
// value (3 when there is none), capped at 40 bytes so the search stays fast.
func fuzzPrime(b []byte) Nat {
	if len(b) > 40 {
		b = b[:40]
	}
	v := new(big.Int).SetBytes(b)
	v.SetBit(v, 0, 1)
	for two := big.NewInt(2); v.Cmp(two) > 0; v.Sub(v, two) {
		if v.ProbablyPrime(20) {
			return fromBig(v)
		}
	}
	return FromUint64(3)
}

// FuzzPowCRT checks the factorised x ↦ x^(pq) mod (pq)² — and Encrypt and
// Decrypt, which share its chains and its Garner step — against math/big. The primes are
// the largest ones at or below the fuzzed values, so the seed corpus puts
// them on the limb boundaries (one-limb primes, the 128-bit-key shape,
// included) and pairs primes of unequal length in both orders; every x is
// also tried as a multiple of p plus a small residue and as a multiple of q.
func FuzzPowCRT(f *testing.F) {
	ops := boundaryOperands()
	for i, pb := range ops {
		f.Add(pb, ops[(i+1)%len(ops)], ops[(i+9)%len(ops)])
		f.Add(pb, ops[(i+20)%len(ops)], []byte{byte(i)}) // unequal lengths, both orders over the corpus
	}
	f.Add([]byte{3}, []byte{5}, []byte{0})
	f.Add([]byte{0xFF, 0xFF}, bytes.Repeat([]byte{0xFF}, 40), bytes.Repeat([]byte{0xAB}, 90)) // q² > 3p², x > n²
	f.Add(bytes.Repeat([]byte{0xFF}, 40), []byte{0xFF, 0xFF}, []byte{1})                      // p² > 3q²
	f.Fuzz(underEachBody(func(t *testing.T, pb, qb, xb []byte) {
		if len(xb) > 200 {
			xb = xb[:200]
		}
		p, q := fuzzPrime(pb), fuzzPrime(qb)
		c, err := NewCRT(p, q)
		if Cmp(p, q) == 0 {
			if err == nil {
				t.Fatalf("NewCRT(%s, %s) accepted equal primes", p, q)
			}
			return
		}
		if err != nil {
			t.Fatalf("NewCRT(%s, %s): %v", p, q, err)
		}
		x := FromBytes(xb)
		small := FromUint64(modWord(x, 7))
		for _, v := range []Nat{x, Add(Mul(p, x), small), Mul(q, AddWord(x, 1))} {
			checkCRT(t, c, p, q, v)
		}
	}))
}

// FuzzDivInto checks the scratch division — remainder only, and with the
// quotient — against DivMod and math/big, on buffers that arrive dirty.
func FuzzDivInto(f *testing.F) {
	ops := boundaryOperands()
	for i, xb := range ops {
		f.Add(append(append([]byte{}, xb...), ops[(i+3)%len(ops)]...), ops[(i+1)%len(ops)])
		f.Add(xb, xb)
		f.Add(ops[(i+1)%len(ops)], append(append([]byte{}, xb...), 1)) // x < y
	}
	f.Add(bytes.Repeat([]byte{0xFF}, 512), bytes.Repeat([]byte{0xFF}, 128))
	f.Add(append([]byte{0x80}, make([]byte, 31)...), []byte{0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		if len(xb) > 1024 || len(yb) > 1024 {
			return
		}
		x, y := FromBytes(xb), FromBytes(yb)
		if y.IsZero() {
			return
		}
		dirty := func(n int) []Word {
			buf := make([]Word, n)
			for i := range buf {
				buf[i] = ^Word(0) - Word(i)
			}
			return buf
		}
		wq, wr := DivMod(x, y)
		bq, br := new(big.Int).QuoRem(toBig(x), toBig(y), new(big.Int))
		if toBig(wq).Cmp(bq) != 0 || toBig(wr).Cmp(br) != 0 {
			t.Fatalf("DivMod(%s, %s) = %s rem %s, math/big says %s rem %s", x, y, wq, wr, bq, br)
		}
		q, r := divInto(nil, dirty(len(x)+len(y)+1), x, y)
		if q != nil || Cmp(r, wr) != 0 || len(r) != len(trim(r)) {
			t.Fatalf("remainder-only %s mod %s = %s (quotient %v), want %s", x, y, r, q, wr)
		}
		q, r = divInto(dirty(len(x)+1), dirty(len(x)+len(y)+1), x, y)
		if Cmp(q, wq) != 0 || Cmp(r, wr) != 0 || len(q) != len(trim(q)) || len(r) != len(trim(r)) {
			t.Fatalf("scratch %s / %s = %s rem %s, want %s rem %s", x, y, q, r, wq, wr)
		}
	})
}
