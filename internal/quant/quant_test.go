package quant

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		r uint
		p int
	}{{1, 4}, {60, 4}, {32, 0}, {62, 4}}
	for _, c := range cases {
		if _, err := New(c.r, c.p); err == nil {
			t.Errorf("New(%d, %d) should fail", c.r, c.p)
		}
	}
	if _, err := New(30, 64); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestOverflowBits(t *testing.T) {
	cases := []struct {
		p    int
		want uint
	}{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {64, 6}, {65, 7}, {1024, 10}}
	for _, c := range cases {
		q := MustNew(20, c.p)
		if q.bBits != c.want {
			t.Errorf("guard bits (p=%d) = %d, want %d", c.p, q.bBits, c.want)
		}
		if q.SlotBits() != 20+c.want {
			t.Errorf("SlotBits(p=%d) = %d", c.p, q.SlotBits())
		}
	}
}

func TestQuantizeEndpoints(t *testing.T) {
	q := MustNew(16, 4)
	if q.Quantize(-1) != 0 {
		t.Errorf("Quantize(-α) = %d, want 0", q.Quantize(-1))
	}
	if got := q.Quantize(1); got != 1<<16-1 {
		t.Errorf("Quantize(α) = %d, want %d", got, 1<<16-1)
	}
	if got := q.Quantize(0); got != 1<<15 && got != 1<<15-1 {
		t.Errorf("Quantize(0) = %d, want ~%d", got, 1<<15)
	}
	// Clamping outside the bound.
	if q.Quantize(-5) != 0 || q.Quantize(5) != 1<<16-1 {
		t.Error("out-of-range values should clamp")
	}
}

func TestRoundTripErrorBound(t *testing.T) {
	q := MustNew(24, 8)
	bound := q.MaxError()
	vals := []float64{-Alpha, -0.998, -0.5, -0.2, 0, 2e-6, 0.246912, 0.5, 0.9998, Alpha}
	for _, m := range vals {
		got := q.Dequantize(q.Quantize(m))
		if d := got - m; d > bound+1e-12 || d < -bound-1e-12 {
			t.Errorf("round trip error %v exceeds bound %v for %v", d, bound, m)
		}
	}
}

func TestPropertyRoundTripWithinStep(t *testing.T) {
	q := MustNew(32, 16)
	f := func(raw int32) bool {
		m := float64(raw) / float64(1<<31) // in (−1, 1)
		got := q.Dequantize(q.Quantize(m))
		d := got - m
		return d <= q.MaxError()+1e-12 && d >= -q.MaxError()-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDequantizeSum(t *testing.T) {
	q := MustNew(30, 4)
	// Simulate 4 participants quantizing values; homomorphic sum = Σ qᵢ.
	ms := []float64{0.25, -0.75, 0.5, -0.125}
	var sum uint64
	var want float64
	for _, m := range ms {
		sum += q.Quantize(m)
		want += m
	}
	got, err := q.DequantizeSum(sum, len(ms))
	if err != nil {
		t.Fatal(err)
	}
	bound := 4 * q.MaxError()
	if d := got - want; d > bound || d < -bound {
		t.Fatalf("aggregated decode error %v exceeds %v", d, bound)
	}
}

func TestDequantizeSumErrors(t *testing.T) {
	q := MustNew(16, 2)
	if _, err := q.DequantizeSum(1, 0); !errors.Is(err, ErrOverflow) {
		t.Errorf("count 0: %v, want ErrOverflow", err)
	}
	if _, err := q.DequantizeSum(1, 3); !errors.Is(err, ErrOverflow) {
		t.Errorf("count above declared capacity: %v, want ErrOverflow", err)
	}
	if _, err := q.DequantizeSum(3*(1<<16-1), 2); !errors.Is(err, ErrOverflow) {
		t.Errorf("sum above count*maxQ: %v, want ErrOverflow", err)
	}
}

func TestVecHelpers(t *testing.T) {
	q := MustNew(20, 2)
	ms := []float64{-1, -0.5, 0, 0.5, 1}
	vs := q.QuantizeVec(ms)
	if len(vs) != len(ms) {
		t.Fatal("length mismatch")
	}
	for i, m := range ms {
		if vs[i] != q.Quantize(m) {
			t.Errorf("element %d: %d, Quantize gives %d", i, vs[i], q.Quantize(m))
		}
	}
}

func TestStepShrinksWithRBits(t *testing.T) {
	prev := MustNew(8, 2).Step()
	for _, r := range []uint{16, 24, 32, 40} {
		s := MustNew(r, 2).Step()
		if s >= prev {
			t.Fatalf("step did not shrink at r=%d", r)
		}
		prev = s
	}
}

func TestNoExponentLeakage(t *testing.T) {
	// The encoding is a single unsigned integer — no (significand, exponent)
	// split. Two values with very different magnitudes must produce outputs
	// in the same integer domain, indistinguishable in format.
	q := MustNew(32, 2)
	small, large := q.Quantize(1e-9), q.Quantize(0.9)
	if small>>uint(q.RBits()) != 0 || large>>uint(q.RBits()) != 0 {
		t.Fatal("quantized values must fit in r bits with zero guard bits")
	}
}

// TestDequantizeSumDeclaredCapacityBoundary pins the extreme legal
// aggregate: count equal to the declared participant capacity with every
// party clipped at +α (sum = count·maxQ). That decodes to exactly count·α;
// one past it in either dimension is rejected.
func TestDequantizeSumDeclaredCapacityBoundary(t *testing.T) {
	q := MustNew(8, 4)
	maxQ := uint64(1<<8 - 1)
	got, err := q.DequantizeSum(4*maxQ, 4)
	if err != nil {
		t.Fatalf("boundary aggregate rejected: %v", err)
	}
	if got != 4 { // 4·α with α = 1
		t.Fatalf("boundary decode = %v, want 4", got)
	}
	if _, err := q.DequantizeSum(4*maxQ+1, 4); err == nil {
		t.Error("sum one past count*maxQ should be flagged as corruption")
	}
	if _, err := q.DequantizeSum(4*maxQ, 5); err == nil {
		t.Error("count above declared capacity should fail")
	}
	// The boundary also holds at count 1: a single clipped party.
	if got, err := q.DequantizeSum(maxQ, 1); err != nil || got != 1 {
		t.Fatalf("single-party boundary = (%v, %v), want (1, nil)", got, err)
	}
}
