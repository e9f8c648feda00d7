package mpint

import (
	"bytes"
	"fmt"
	"math/big"
	"testing"
	"testing/quick"
)

// toBig converts a Nat into the math/big oracle representation.
func toBig(x Nat) *big.Int {
	return new(big.Int).SetBytes(x.Bytes())
}

// fromBig converts a non-negative big.Int into a Nat.
func fromBig(b *big.Int) Nat {
	if b.Sign() < 0 {
		panic("fromBig: negative")
	}
	return FromBytes(b.Bytes())
}

// randNat draws a random Nat with up to maxBits bits (possibly zero).
func randNat(r *RNG, maxBits int) Nat {
	bits := r.Intn(maxBits + 1)
	if bits == 0 {
		return nil
	}
	return r.RandBits(bits)
}

func TestFromUint64RoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 2, 0xFFFFFFFF, 0x100000000, 0xFFFFFFFFFFFFFFFF, 12345678901234}
	for _, v := range cases {
		got, ok := FromUint64(v).Uint64()
		if !ok || got != v {
			t.Errorf("FromUint64(%d) round trip = %d, ok=%v", v, got, ok)
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 500; i++ {
		x := randNat(r, 300)
		got := FromBytes(x.Bytes())
		if Cmp(got, x) != 0 {
			t.Fatalf("bytes round trip failed for %s", x)
		}
		if !bytes.Equal(x.Bytes(), toBig(x).Bytes()) {
			t.Fatalf("Bytes disagrees with big.Int for %s", x)
		}
	}
}

func TestDecimalRoundTrip(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 200; i++ {
		x := randNat(r, 256)
		s := x.String()
		if s != toBig(x).String() {
			t.Fatalf("String() = %s, big says %s", s, toBig(x))
		}
	}
}

func TestAddSubDifferential(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 2000; i++ {
		x, y := randNat(r, 400), randNat(r, 400)
		sum := Add(x, y)
		want := new(big.Int).Add(toBig(x), toBig(y))
		if toBig(sum).Cmp(want) != 0 {
			t.Fatalf("Add(%s,%s) = %s, want %s", x, y, sum, want)
		}
		back := Sub(sum, y)
		if Cmp(back, x) != 0 {
			t.Fatalf("Sub(Add(x,y),y) != x for x=%s y=%s", x, y)
		}
	}
}

func TestSubUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sub should panic on underflow")
		}
	}()
	Sub(FromUint64(1), FromUint64(2))
}

// TestMulDifferential: Mul against math/big on random operands up to 600
// bits, and at 128×128 and 256×128 limbs — a 4,096-bit key's n²-sized
// operands and wider — random and with every bit set (the longest carry
// chains).
func TestMulDifferential(t *testing.T) {
	r := NewRNG(4)
	check := func(x, y Nat) {
		t.Helper()
		if toBig(Mul(x, y)).Cmp(new(big.Int).Mul(toBig(x), toBig(y))) != 0 {
			t.Fatalf("Mul mismatch for %d×%d limbs: %s * %s", len(x), len(y), x, y)
		}
	}
	for i := 0; i < 800; i++ {
		check(randNat(r, 600), randNat(r, 600))
	}
	ones := func(limbs int) Nat {
		x := make(Nat, limbs)
		for i := range x {
			x[i] = ^Word(0)
		}
		return x
	}
	for _, shape := range [][2]int{{128, 128}, {256, 128}} {
		check(r.RandBits(shape[0]*WordBits), r.RandBits(shape[1]*WordBits-3))
		check(ones(shape[0]), ones(shape[1]))
		check(ones(shape[1]), r.RandBits(shape[0]*WordBits))
	}
}

// TestMulAddWordInto: x·y + w against math/big, into limbs too short, long
// enough and dirty, with zero operands and a carry-in that ripples.
func TestMulAddWordInto(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 400; i++ {
		x, y, w := randNat(r, 700), randNat(r, 700), r.Word()
		switch i % 5 {
		case 0:
			x = nil
		case 1:
			w = ^Word(0)
		}
		z := make(Nat, r.Intn(30))
		for j := range z {
			z[j] = r.Word()
		}
		got := MulAddWordInto(z, x, y, w)
		want := new(big.Int).Mul(toBig(x), toBig(y))
		want.Add(want, new(big.Int).SetUint64(w))
		if toBig(got).Cmp(want) != 0 || Cmp(got, trim(got)) != 0 || len(got) != len(trim(got)) {
			t.Fatalf("MulAddWordInto(%s, %s, %d) = %s, want %s", x, y, w, got, want)
		}
		if cap(z) >= max(1, len(x)+len(y)) && len(got) > 0 && &got[0] != &z[:1][0] {
			t.Fatalf("%d limbs of capacity held the product, fresh ones were taken", cap(z))
		}
	}
}

func TestShifts(t *testing.T) {
	r := NewRNG(6)
	for i := 0; i < 500; i++ {
		x := randNat(r, 300)
		s := uint(r.Intn(200))
		if toBig(Lsh(x, s)).Cmp(new(big.Int).Lsh(toBig(x), s)) != 0 {
			t.Fatalf("Lsh(%s, %d) wrong", x, s)
		}
		if toBig(Rsh(x, s)).Cmp(new(big.Int).Rsh(toBig(x), s)) != 0 {
			t.Fatalf("Rsh(%s, %d) wrong", x, s)
		}
	}
}

func TestBitLenAndBit(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 300; i++ {
		x := randNat(r, 200)
		if x.BitLen() != toBig(x).BitLen() {
			t.Fatalf("BitLen(%s) = %d, want %d", x, x.BitLen(), toBig(x).BitLen())
		}
		for _, b := range []int{0, 1, 31, 32, 63, 199} {
			if x.Bit(b) != toBig(x).Bit(b) {
				t.Fatalf("Bit(%s, %d) mismatch", x, b)
			}
		}
	}
}

// TestFieldAgainstBig holds the bit-field pair to math/big's shifts: OrField
// into zeroed and into random limbs, and Field reads of both, at offsets
// 0, 63, 64 and 100 with values that straddle a limb, all 64 bits set, and
// reads that run past the last limb, whose missing bits must read 0.
func TestFieldAgainstBig(t *testing.T) {
	r := NewRNG(31)
	mask := new(big.Int).SetUint64(^uint64(0))
	field := func(x Nat, off int) uint64 {
		return new(big.Int).And(new(big.Int).Rsh(toBig(x), uint(off)), mask).Uint64()
	}
	for _, off := range []int{0, 1, 63, 64, 100, 127} {
		for _, v := range []uint64{0, 1, 3, 1 << 63, ^uint64(0), 0x8000_0000_0000_0001, r.Uint64()} {
			limbs := (off + 2*WordBits - 1) / WordBits // exactly the limbs [off, off+64) touches
			for _, bg := range []Nat{make(Nat, limbs), r.RandBits(limbs * WordBits)} {
				z := bg.Clone()
				OrField(z, off, v)
				want := new(big.Int).Or(toBig(bg), new(big.Int).Lsh(new(big.Int).SetUint64(v), uint(off)))
				if toBig(z).Cmp(want) != 0 {
					t.Fatalf("OrField(%d limbs, off %d, %#x) = %s, want %s", limbs, off, v, z, want)
				}
				for _, at := range []int{0, off, off + 1, limbs*WordBits - 64, limbs*WordBits - 1, limbs * WordBits, limbs*WordBits + 70} {
					if got, want := z.Field(at), field(z, at); got != want {
						t.Fatalf("Field(off %d) of %s = %#x, want %#x", at, z, got, want)
					}
				}
				if toBig(bg).Sign() == 0 && z.Field(off) != v {
					t.Fatalf("Field(%d) = %#x after OrField of %#x into zeros", off, z.Field(off), v)
				}
			}
		}
	}
}

func TestTrailingZeroBits(t *testing.T) {
	cases := []struct {
		v    uint64
		want uint
	}{{0, 0}, {1, 0}, {2, 1}, {8, 3}, {0x100000000, 32}, {3 << 20, 20}}
	for _, c := range cases {
		if got := FromUint64(c.v).TrailingZeroBits(); got != c.want {
			t.Errorf("TrailingZeroBits(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestDivModDifferential(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 1500; i++ {
		x := randNat(r, 700)
		y := randNat(r, 350)
		if y.IsZero() {
			y = One()
		}
		q, rem := DivMod(x, y)
		bq, br := new(big.Int).QuoRem(toBig(x), toBig(y), new(big.Int))
		if toBig(q).Cmp(bq) != 0 || toBig(rem).Cmp(br) != 0 {
			t.Fatalf("DivMod(%s, %s) = (%s, %s), want (%s, %s)", x, y, q, rem, bq, br)
		}
	}
}

func TestDivKnuthCornerCases(t *testing.T) {
	// The D5/D6 add-back path triggers rarely with random inputs; construct
	// dividends of the form q*y + r with extreme quotient digits.
	r := NewRNG(9)
	maxWord := FromUint64(0xFFFFFFFF)
	for i := 0; i < 300; i++ {
		y := r.RandBits(64 + r.Intn(200))
		q := Lsh(maxWord, uint(32*r.Intn(4)))
		rem := r.RandBelow(y)
		x := Add(Mul(q, y), rem)
		gq, gr := DivMod(x, y)
		if Cmp(gq, q) != 0 || Cmp(gr, rem) != 0 {
			t.Fatalf("constructed DivMod failed: y=%s q=%s", y, q)
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DivMod by zero should panic")
		}
	}()
	DivMod(FromUint64(5), nil)
}

func TestGCDLCMDifferential(t *testing.T) {
	r := NewRNG(10)
	for i := 0; i < 400; i++ {
		x, y := randNat(r, 300), randNat(r, 300)
		g := GCD(x, y)
		want := new(big.Int).GCD(nil, nil, toBig(x), toBig(y))
		if toBig(g).Cmp(want) != 0 {
			t.Fatalf("GCD(%s, %s) = %s, want %s", x, y, g, want)
		}
		if !x.IsZero() && !y.IsZero() {
			l := LCM(x, y)
			bl := new(big.Int).Div(new(big.Int).Mul(toBig(x), toBig(y)), want)
			if toBig(l).Cmp(bl) != 0 {
				t.Fatalf("LCM(%s, %s) wrong", x, y)
			}
		}
	}
}

func TestModInverse(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 300; i++ {
		n := AddWord(randNat(r, 200), 2)
		x := r.RandBelow(n)
		inv, ok := ModInverse(x, n)
		wantOK := new(big.Int).GCD(nil, nil, toBig(x), toBig(n)).Cmp(big.NewInt(1)) == 0
		if ok != wantOK {
			t.Fatalf("ModInverse(%s, %s) ok=%v, want %v", x, n, ok, wantOK)
		}
		if ok {
			prod := Mod(Mul(x, inv), n)
			if !prod.IsOne() {
				t.Fatalf("x*inv mod n = %s for x=%s n=%s", prod, x, n)
			}
		}
	}
}

func TestModInverseEdges(t *testing.T) {
	if _, ok := ModInverse(FromUint64(3), One()); ok {
		t.Error("inverse mod 1 should fail")
	}
	if _, ok := ModInverse(Zero(), FromUint64(7)); ok {
		t.Error("inverse of 0 should fail")
	}
	inv, ok := ModInverse(One(), FromUint64(7))
	if !ok || !inv.IsOne() {
		t.Errorf("inverse of 1 mod 7 = %s, ok=%v", inv, ok)
	}
}

func TestWordsRoundTrip(t *testing.T) {
	x := Add(Lsh(FromUint64(0x99), 64), FromUint64(0x1122334455667788))
	w := []Word{0x1122334455667788, 0x99, 0, 0}
	if Cmp(FromWords(w), x) != 0 {
		t.Fatal("FromWords round trip failed")
	}
}

// Property tests on algebraic invariants.

func TestPropertyAddCommutative(t *testing.T) {
	r := NewRNG(20)
	f := func(a, b uint64) bool {
		x, y := Mul(FromUint64(a), FromUint64(b)), Add(FromUint64(a), FromUint64(b))
		return Cmp(Add(x, y), Add(y, x)) == 0
	}
	if err := quick.Check(f, quickConfig(r)); err != nil {
		t.Error(err)
	}
}

func TestPropertyMulDistributes(t *testing.T) {
	r := NewRNG(21)
	for i := 0; i < 300; i++ {
		a, b, c := randNat(r, 256), randNat(r, 256), randNat(r, 256)
		left := Mul(a, Add(b, c))
		right := Add(Mul(a, b), Mul(a, c))
		if Cmp(left, right) != 0 {
			t.Fatalf("a(b+c) != ab+ac for a=%s b=%s c=%s", a, b, c)
		}
	}
}

func TestPropertyDivModIdentity(t *testing.T) {
	r := NewRNG(22)
	for i := 0; i < 500; i++ {
		x, y := randNat(r, 512), AddWord(randNat(r, 256), 1)
		q, rem := DivMod(x, y)
		if Cmp(Add(Mul(q, y), rem), x) != 0 {
			t.Fatalf("q*y + r != x for x=%s y=%s", x, y)
		}
		if Cmp(rem, y) >= 0 {
			t.Fatalf("remainder %s >= divisor %s", rem, y)
		}
	}
}

func quickConfig(r *RNG) *quick.Config {
	return &quick.Config{MaxCount: 200}
}

// BenchmarkRandCoprime is a public-key encryption's nonce draw, its
// coprimality check (the Euclid walk) the bulk of it, at a 128-bit key's two
// limbs, a 256-bit key's four, and the 1,024- and 2,048-bit keys' 16 and 32.
func BenchmarkRandCoprime(b *testing.B) {
	for _, bits := range []int{128, 256, 1024, 2048} {
		r := NewRNG(uint64(bits))
		n := randOdd(r, bits)
		b.Run(fmt.Sprint(bits), func(b *testing.B) {
			for b.Loop() {
				r.RandCoprime(n)
			}
		})
	}
}

// BenchmarkModInverse is the Euclid walk carrying a coefficient: a key's μ,
// its h constants and its Garner constants are one each.
func BenchmarkModInverse(b *testing.B) {
	for _, bits := range []int{128, 1024, 2048} {
		r := NewRNG(uint64(bits))
		n := randOdd(r, bits)
		x := r.RandBelow(n)
		b.Run(fmt.Sprint(bits), func(b *testing.B) {
			for b.Loop() {
				ModInverse(x, n)
			}
		})
	}
}
