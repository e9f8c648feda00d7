package mpint

import (
	"math"
	"math/big"
	"testing"
)

func TestIsPrimeSmall(t *testing.T) {
	r := NewRNG(50)
	primes := []uint64{2, 3, 5, 7, 11, 13, 97, 251, 257, 65537, 1000003, 4294967291}
	composites := []uint64{0, 1, 4, 9, 15, 100, 255, 65535, 1000001,
		341, 561, 645, 1105, 1729, 2465, 2821, 6601} // includes Carmichael numbers
	for _, p := range primes {
		if !IsPrime(FromUint64(p), r) {
			t.Errorf("IsPrime(%d) = false, want true", p)
		}
	}
	for _, c := range composites {
		if IsPrime(FromUint64(c), r) {
			t.Errorf("IsPrime(%d) = true, want false", c)
		}
	}
}

func TestIsPrimeDifferential(t *testing.T) {
	r := NewRNG(51)
	for i := 0; i < 200; i++ {
		n := AddWord(randNat(r, 80), 2)
		got := IsPrime(n, r)
		want := toBig(n).ProbablyPrime(30)
		if got != want {
			t.Fatalf("IsPrime(%s) = %v, big says %v", n, got, want)
		}
	}
}

func TestRandPrime(t *testing.T) {
	r := NewRNG(52)
	for _, bits := range []int{16, 32, 64, 128, 256} {
		p := r.RandPrime(bits)
		if p.BitLen() != bits {
			t.Errorf("RandPrime(%d) has %d bits", bits, p.BitLen())
		}
		if !toBig(p).ProbablyPrime(30) {
			t.Errorf("RandPrime(%d) = %s is composite", bits, p)
		}
	}
}

func TestRandPrimePanicsOnTinyWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RandPrime(2) should panic")
		}
	}()
	NewRNG(1).RandPrime(2)
}

func TestRandSafePrimePair(t *testing.T) {
	r := NewRNG(53)
	p, q := r.RandSafePrimePair(96)
	if Cmp(p, q) == 0 {
		t.Fatal("prime pair not distinct")
	}
	if p.BitLen() != 96 || q.BitLen() != 96 {
		t.Fatalf("pair widths: %d, %d", p.BitLen(), q.BitLen())
	}
	if !toBig(p).ProbablyPrime(30) || !toBig(q).ProbablyPrime(30) {
		t.Fatal("pair contains composite")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(8)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(7).Uint64() != c.Uint64() {
			same = false
		}
		c = NewRNG(8)
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandBelowUniformBounds(t *testing.T) {
	r := NewRNG(54)
	n := FromUint64(1000)
	seen := make(map[uint64]bool)
	for i := 0; i < 5000; i++ {
		v, _ := r.RandBelow(n).Uint64()
		if v >= 1000 {
			t.Fatalf("RandBelow(1000) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) < 900 {
		t.Fatalf("RandBelow coverage suspiciously low: %d/1000 values", len(seen))
	}
}

func TestRandBitsWidth(t *testing.T) {
	r := NewRNG(55)
	for _, bits := range []int{1, 2, 31, 32, 33, 64, 65, 1024} {
		for i := 0; i < 20; i++ {
			if got := r.RandBits(bits).BitLen(); got != bits {
				t.Fatalf("RandBits(%d).BitLen() = %d", bits, got)
			}
		}
	}
}

func TestRandCoprime(t *testing.T) {
	r := NewRNG(56)
	n := FromUint64(2 * 3 * 5 * 7 * 11 * 13)
	for i := 0; i < 100; i++ {
		z := r.RandCoprime(n)
		if !GCD(z, n).IsOne() {
			t.Fatalf("RandCoprime returned non-coprime %s", z)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(57)
	var sum float64
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / 10000; mean < 0.45 || mean > 0.55 {
		t.Fatalf("Float64 mean %v far from 0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(58)
	var sum, sumSq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Fatalf("normal mean %v far from 0", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Fatalf("normal variance %v far from 1", variance)
	}
}

// TestLnSqrtHelpers pins Ln bit for bit — the losses, Adam's step and every
// normal draw hang off it — at inputs that take each range-reduction loop
// (below 0.5 and above 1.5, down to the smallest subnormal and up to the
// largest float), both loops' edges and the series alone, and holds
// sqrtNewton to its tolerance.
func TestLnSqrtHelpers(t *testing.T) {
	for _, c := range []struct {
		x    float64
		bits uint64
	}{
		{5e-324, 0xc0874385446d712c},
		{1e-300, 0xc085963447f87f44},
		{1e-10, 0xc037069e2aa2aa56},
		{0.001, 0xc01ba18a998fffa0},
		{0.3, 0xbff34378fcbda720},
		{0.49999999999999994, 0xbfe62e42fefa39f0},
		{0.5, 0xbfe62e42fefa39ed},
		{0.75, 0xbfd269621134db92},
		{0.9, 0xbfbaf8e8210a415b},
		{1, 0x0000000000000000},
		{1.25, 0x3fcc8ff7c79a9a21},
		{1.5, 0x3fd9f323ecbf984d},
		{1.5000000000000002, 0x3fd9f323ecbf984e},
		{2, 0x3fe62e42fefa39ef},
		{3, 0x3ff193ea7aad030b},
		{10, 0x40026bb1bbb55515},
		{12345.678, 0x4022d79559791e31},
		{1e300, 0x4085963447f87f44},
		{math.MaxFloat64, 0x40862e42fefa3970},
	} {
		if got := Ln(c.x); math.Float64bits(got) != c.bits {
			t.Errorf("Ln(%v) = %v (%#016x), want %v (%#016x)", c.x, got, math.Float64bits(got), math.Float64frombits(c.bits), c.bits)
		}
	}
	for _, x := range []float64{0, 1, 2, 4, 100, 0.25} {
		got := sqrtNewton(x)
		if d := got*got - x; d > 1e-9*(x+1) || d < -1e-9*(x+1) {
			t.Errorf("sqrtNewton(%v) = %v", x, got)
		}
	}
}

func TestBigOracleConversions(t *testing.T) {
	// Guard the test helpers themselves.
	x := FromUint64(123456789)
	if fromBig(toBig(x)).String() != "123456789" {
		t.Fatal("test oracle conversion broken")
	}
	if fromBig(big.NewInt(0)).String() != "0" {
		t.Fatal("zero conversion broken")
	}
}

func BenchmarkRandPrime256(b *testing.B) {
	r := NewRNG(60)
	for i := 0; i < b.N; i++ {
		r.RandPrime(256)
	}
}

func BenchmarkIsPrime512(b *testing.B) {
	r := NewRNG(61)
	p := r.RandPrime(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IsPrime(p, r)
	}
}
