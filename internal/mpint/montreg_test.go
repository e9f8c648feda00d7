package mpint

import (
	"math/big"
	"testing"
)

// TestRegsAgainstBig holds the one- and two-limb multiply and chain (mul1,
// mul2, expMontRegs) to math/big, under every body and once on the rows, on
// the moduli a register CIOS is likeliest to get wrong: the smallest, the
// largest one-limb and two-limb ones, the smallest two-limb one, moduli whose
// n′ is 1 (the low limb all ones), and random ones; on operands 0, 1, n−1 and
// random; with the destination aliasing either operand and both; and on the
// schedules of exponents 0 to 3, n−1 and 2¹³⁰−1, the one-bit one (isOne) read
// straight from the chain, which leaves it in Montgomery form.
func TestRegsAgainstBig(t *testing.T) {
	r := NewRNG(0x2E65)
	ones := ^Word(0)
	moduli := []Nat{
		FromUint64(3),
		{ones},       // 2⁶⁴−1, n′ = 1
		{1, 1},       // 2⁶⁴+1
		{ones, ones}, // 2¹²⁸−1, n′ = 1
		{ones, 5},    // n′ = 1 under a short top limb
		randOdd(r, 64),
		randOdd(r, 100),
		randOdd(r, 128),
	}
	exps := []Nat{Zero(), One(), FromUint64(2), FromUint64(3), SubWord(Lsh(One(), 130), 1)}
	for _, n := range moduli {
		m := NewMont(n)
		if n[0] == ones && m.n0inv != 1 {
			t.Fatalf("n = %s: n′ = %#x, want 1", n, m.n0inv)
		}
		bn := toBig(n)
		rBig := new(big.Int).Lsh(big.NewInt(1), uint(64*m.k))
		rInv := new(big.Int).ModInverse(rBig, bn)
		ops := []Nat{Zero(), One(), SubWord(n, 1), r.RandBelow(n), r.RandBelow(n)}
		raw := func(a, b Nat) *big.Int {
			z := new(big.Int).Mul(toBig(a), toBig(b))
			return z.Mul(z, rInv).Mod(z, bn)
		}
		forEachBody(t, func() {
			sc := m.getScratch()
			defer m.putScratch(sc)
			check := func(what string, a, b, got Nat) {
				t.Helper()
				if want := raw(a, b); toBig(got).Cmp(want) != 0 || len(got) != len(trim(got)) {
					t.Fatalf("n = %s, a = %s, b = %s: %s = %v, want %s", n, a, b, what, got, want)
				}
			}
			inDst := func(x Nat) Nat { return append(make(Nat, 0, m.k), x...) }
			for _, a := range ops {
				for _, b := range ops {
					check("Mul(a, b)", a, b, m.Mul(a, b))
					d := inDst(a)
					check("mulInto(a, a, b)", a, b, m.mulInto(d, d, b, sc))
					d = inDst(b)
					check("mulInto(b, a, b)", a, b, m.mulInto(d, a, d, sc))
				}
				d := inDst(a)
				check("mulInto(a, a, a)", a, a, m.mulInto(d, d, d, sc))
			}
			for _, e := range append(exps, SubWord(n, 1)) {
				s := CompileExpAuto(e)
				for _, base := range ops {
					want := new(big.Int).Exp(toBig(base), toBig(e), bn)
					if got := m.Exp(base, e); toBig(got).Cmp(want) != 0 {
						t.Fatalf("n = %s: Exp(%s, %s) = %s, want %s", n, base, e, got, want)
					}
					if s.isZero {
						continue
					}
					want.Mul(want, rBig).Mod(want, bn)
					if got := m.expMont(base, s, sc); toBig(got).Cmp(want) != 0 || len(got) != m.k {
						t.Fatalf("n = %s: expMont(%s, %s) = %v, want %s in %d limbs", n, base, e, got, want, m.k)
					}
				}
			}
		})
	}
}
