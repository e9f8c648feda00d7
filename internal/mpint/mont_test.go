package mpint

import (
	"math/big"
	"testing"
)

// randOdd returns a random odd modulus with the given bit width.
func randOdd(r *RNG, bits int) Nat {
	n := r.RandBits(bits)
	n[0] |= 1
	return n
}

func TestNegInvWord(t *testing.T) {
	r := NewRNG(30)
	for i := 0; i < 1000; i++ {
		w := r.Word() | 1
		inv := negInvWord(w)
		if w*(-inv) != 1 { // w * w^-1 == 1 mod 2^32
			t.Fatalf("negInvWord(%#x) = %#x invalid", w, inv)
		}
	}
}

func TestMontMulDifferential(t *testing.T) {
	r := NewRNG(31)
	for i := 0; i < 300; i++ {
		n := randOdd(r, 64+r.Intn(512))
		m := NewMont(n)
		a, b := r.RandBelow(n), r.RandBelow(n)
		// mont.Mul computes a*b*R^-1; check via Montgomery round trip.
		got := m.FromMont(m.Mul(m.ToMont(a), m.ToMont(b)))
		want := new(big.Int).Mod(new(big.Int).Mul(toBig(a), toBig(b)), toBig(n))
		if toBig(got).Cmp(want) != 0 {
			t.Fatalf("mont mul mismatch: %s * %s mod %s = %s, want %s", a, b, n, got, want)
		}
	}
}

func TestMontRoundTrip(t *testing.T) {
	r := NewRNG(32)
	for i := 0; i < 200; i++ {
		n := randOdd(r, 32+r.Intn(256))
		m := NewMont(n)
		x := r.RandBelow(n)
		if got := m.FromMont(m.ToMont(x)); Cmp(got, x) != 0 {
			t.Fatalf("Montgomery round trip failed: %s -> %s (mod %s)", x, got, n)
		}
	}
}

func TestMontOne(t *testing.T) {
	m := NewMont(FromUint64(1000003))
	if got := m.FromMont(m.one); !got.IsOne() {
		t.Fatalf("FromMont of the Montgomery one = %s", got)
	}
}

func TestMontRejectsBadModulus(t *testing.T) {
	for _, n := range []Nat{nil, FromUint64(8), FromUint64(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMont(%s) should panic", n)
				}
			}()
			NewMont(n)
		}()
	}
}

func TestExpDifferential(t *testing.T) {
	r := NewRNG(33)
	for i := 0; i < 150; i++ {
		n := randOdd(r, 64+r.Intn(384))
		m := NewMont(n)
		base := r.RandBelow(n)
		e := randNat(r, 300)
		got := m.Exp(base, e)
		want := new(big.Int).Exp(toBig(base), toBig(e), toBig(n))
		if toBig(got).Cmp(want) != 0 {
			t.Fatalf("Exp(%s, %s) mod %s = %s, want %s", base, e, n, got, want)
		}
	}
}

func TestExpEdgeCases(t *testing.T) {
	m := NewMont(FromUint64(1000003))
	if got := m.Exp(FromUint64(5), Zero()); !got.IsOne() {
		t.Errorf("x^0 = %s", got)
	}
	if got := m.Exp(Zero(), FromUint64(17)); !got.IsZero() {
		t.Errorf("0^e = %s", got)
	}
	if got := m.Exp(Zero(), Zero()); !got.IsOne() {
		t.Errorf("0^0 = %s (convention: 1)", got)
	}
	// base >= n must be reduced first.
	if got := m.Exp(FromUint64(2000006), FromUint64(3)); !got.IsZero() {
		t.Errorf("(2n)^3 mod n = %s", got)
	}
}

func TestModExpEvenModulus(t *testing.T) {
	r := NewRNG(34)
	for i := 0; i < 100; i++ {
		n := AddWord(Lsh(randNat(r, 128), 1), 2) // even, >= 2
		base := randNat(r, 128)
		e := randNat(r, 64)
		got := ModExp(base, e, n)
		want := new(big.Int).Exp(toBig(base), toBig(e), toBig(n))
		if toBig(got).Cmp(want) != 0 {
			t.Fatalf("even ModExp(%s,%s,%s) = %s, want %s", base, e, n, got, want)
		}
	}
}

func TestModExpModulusOne(t *testing.T) {
	if got := ModExp(FromUint64(5), FromUint64(3), One()); !got.IsZero() {
		t.Fatalf("x^e mod 1 = %s", got)
	}
}

func TestModArithHelpers(t *testing.T) {
	r := NewRNG(35)
	for i := 0; i < 300; i++ {
		n := AddWord(randNat(r, 128), 2)
		a, b := r.RandBelow(n), r.RandBelow(n)
		bn := toBig(n)
		if toBig(ModMul(a, b, n)).Cmp(new(big.Int).Mod(new(big.Int).Mul(toBig(a), toBig(b)), bn)) != 0 {
			t.Fatal("ModMul mismatch")
		}
		if toBig(ModAdd(a, b, n)).Cmp(new(big.Int).Mod(new(big.Int).Add(toBig(a), toBig(b)), bn)) != 0 {
			t.Fatal("ModAdd mismatch")
		}
	}
}

func TestFermatLittleTheorem(t *testing.T) {
	// a^(p-1) ≡ 1 mod p for prime p and gcd(a,p)=1 — an end-to-end sanity
	// check tying Exp, Mont and the prime generator together.
	r := NewRNG(36)
	p := r.RandPrime(96)
	m := NewMont(p)
	for i := 0; i < 20; i++ {
		a := AddWord(r.RandBelow(SubWord(p, 1)), 1)
		if got := m.Exp(a, SubWord(p, 1)); !got.IsOne() {
			t.Fatalf("Fermat failed: %s^(p-1) mod %s = %s", a, p, got)
		}
	}
}

func BenchmarkMontMul1024(b *testing.B) { benchMontMul(b, 1024) }
func BenchmarkMontMul2048(b *testing.B) { benchMontMul(b, 2048) }
func BenchmarkMontMul4096(b *testing.B) { benchMontMul(b, 4096) }

func benchMontMul(b *testing.B, bits int) {
	r := NewRNG(40)
	n := randOdd(r, bits)
	m := NewMont(n)
	x := m.ToMont(r.RandBelow(n))
	y := m.ToMont(r.RandBelow(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = m.Mul(x, y)
	}
}

// BenchmarkNewMont prices a context: what NewMont builds for every modulus,
// and (+digits) what the first exponentiation chain adds, once, on a host
// whose chains run on 52-bit digits.
func BenchmarkNewMont(b *testing.B) {
	for _, limbs := range []int{8, 16, 32, 64} {
		n := randOdd(NewRNG(42), 64*limbs)
		b.Run(FromUint64(uint64(limbs)).String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewMont(n)
			}
		})
		b.Run(FromUint64(uint64(limbs)).String()+"+digits", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewMont(n).ifma()
			}
		})
	}
}

func BenchmarkModExp1024(b *testing.B) { benchModExp(b, 1024) }
func BenchmarkModExp2048(b *testing.B) { benchModExp(b, 2048) }

func benchModExp(b *testing.B, bits int) {
	r := NewRNG(41)
	n := randOdd(r, bits)
	m := NewMont(n)
	base := r.RandBelow(n)
	e := r.RandBits(bits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Exp(base, e)
	}
}

// TestCompileExpTrivial pins the no-table guarantee: exponents 0 and 1 compile
// to empty schedules, and the width clamps to the exponent bit length.
func TestCompileExpTrivial(t *testing.T) {
	for _, e := range []Nat{Zero(), One()} {
		s := CompileExp(e, 8)
		if !(s.isZero || s.isOne) || len(s.ops) != 0 {
			t.Errorf("CompileExp(%s): trivial %v, ops=%d, want empty schedule", e, s.isZero || s.isOne, len(s.ops))
		}
	}
	if s := CompileExp(FromUint64(3), 12); s.w != 2 {
		t.Errorf("2-bit exponent at width 12 should clamp to 2, got %d", s.w)
	}
	if s := CompileExpAuto(FromUint64(1)); !s.isOne {
		t.Errorf("auto-compiled exponent 1 should build no table")
	}
}

// TestExpSchedSharedAcrossBases is the vector-op usage pattern: one compiled
// schedule reused for many bases must equal per-base Exp.
func TestExpSchedSharedAcrossBases(t *testing.T) {
	r := NewRNG(0xC0D)
	n := r.RandBits(256)
	n[0] |= 1
	m := NewMont(n)
	e := r.RandBits(230)
	s := CompileExpAuto(e)
	for i := 0; i < 16; i++ {
		base := r.RandBelow(n)
		want := m.Exp(base, e)
		if got := m.ExpSched(base, s); Cmp(got, want) != 0 {
			t.Fatalf("shared schedule diverges on base %d", i)
		}
	}
}

// TestExpTinyExponents pins Exp against math/big on the exponents the window
// clamping exists for, across widths.
func TestExpTinyExponents(t *testing.T) {
	r := NewRNG(0xC0E)
	n := r.RandBits(128)
	n[0] |= 1
	m := NewMont(n)
	bn := toBig(n)
	base := r.RandBelow(n)
	bb := toBig(base)
	for _, ev := range []uint64{0, 1, 2, 3, 4, 5, 7, 8, 255, 256, 65537} {
		e := FromUint64(ev)
		want := new(big.Int).Exp(bb, toBig(e), bn)
		for w := uint(1); w <= 12; w++ {
			if got := m.ExpWindow(base, e, w); toBig(got).Cmp(want) != 0 {
				t.Fatalf("ExpWindow(e=%d, w=%d) = %s, want %s", ev, w, got, want)
			}
		}
	}
}

// TestShiftPackDifferential holds the Horner chain to Π xs[j]^(2^(b·j)) mod n
// by math/big, on the rows and on the digits: one- to forty-limb moduli, one to
// five values a pack, shifts of 1, 64 and 65 bits, and among the values zero,
// n−1, one at n (reduced to zero) and one past it.
func TestShiftPackDifferential(t *testing.T) {
	forEachBody(t, func() {
		r := NewRNG(0x5817)
		for _, bits := range []int{17, 64, 65, 256, 511, 512, 1024, 2560} {
			n := randOdd(r, bits)
			m, bn := NewMont(n), toBig(n)
			for _, shift := range []uint{1, 64, 65} {
				e := Lsh(One(), shift)
				s := CompileExpAuto(e)
				for count := 1; count <= 5; count++ {
					xs := make([]Nat, count)
					for j := range xs {
						xs[j] = r.RandBelow(n)
					}
					xs[0] = []Nat{Zero(), SubWord(n, 1), n, Add(n, xs[0]), xs[0]}[count-1]
					want, w := big.NewInt(1), big.NewInt(1)
					for _, x := range xs {
						want.Mul(want, new(big.Int).Exp(toBig(x), w, bn)).Mod(want, bn)
						w.Mul(w, toBig(e))
					}
					if got := m.ShiftPack(nil, xs, s); toBig(got).Cmp(want) != 0 || len(got) != len(trim(got)) {
						t.Fatalf("%d-bit modulus, %d values, shift %d: ShiftPack = %s, math/big says %s", bits, count, shift, got, want)
					}
				}
			}
		}
	})
}
