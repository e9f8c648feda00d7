package mpint

import (
	"math/big"
	"testing"
)

// TestFixedBaseExpMatchesExp is the comb ≡ sliding-window differential: every
// height against random exponents of every width up to the table bound.
func TestFixedBaseExpMatchesExp(t *testing.T) {
	r := NewRNG(0xC0B)
	for _, bits := range []int{64, 256, 521} {
		n := r.RandBits(bits)
		n[0] |= 1
		m := NewMont(n)
		base := r.RandBelow(n)
		for h := 1; h <= 8; h++ {
			tbl := NewFixedBaseTable(m, base, bits, h)
			for trial := 0; trial < 8; trial++ {
				e := r.RandBits(1 + r.Intn(bits))
				want := m.Exp(base, e)
				if got := tbl.Exp(e); Cmp(got, want) != 0 {
					t.Fatalf("%d-bit modulus, h=%d: comb Exp diverges from Mont.Exp for e=%s", bits, h, e)
				}
			}
		}
	}
}

// TestFixedBaseExpEdgeCases drives the comb through the degenerate exponents
// and shapes the clamping rules exist for.
func TestFixedBaseExpEdgeCases(t *testing.T) {
	r := NewRNG(0xC0C)
	n := r.RandBits(192)
	n[0] |= 1
	m := NewMont(n)
	base := r.RandBelow(n)
	tests := []struct {
		name    string
		base    Nat
		maxBits int
		h       int
		e       Nat
	}{
		{"zero exponent", base, 192, 4, Zero()},
		{"one-bit exponent", base, 192, 4, One()},
		{"two", base, 192, 4, FromUint64(2)},
		{"all-ones exponent", base, 192, 4, Sub(Lsh(One(), 192), One())},
		{"height above cap", base, 192, 99, r.RandBits(150)},
		{"height below floor", base, 192, -3, r.RandBits(150)},
		{"one-bit table", base, 1, 8, One()},
		{"tiny table, tiny exponent", base, 3, 8, FromUint64(5)},
		{"oversize exponent falls back", base, 64, 4, r.RandBits(200)},
		{"zero base", Zero(), 128, 4, r.RandBits(100)},
		{"one base", One(), 128, 4, r.RandBits(100)},
		{"unreduced base", Add(n, FromUint64(7)), 128, 4, r.RandBits(100)},
	}
	for _, tc := range tests {
		tbl := NewFixedBaseTable(m, tc.base, tc.maxBits, tc.h)
		want := m.Exp(tc.base, tc.e)
		if got := tbl.Exp(tc.e); Cmp(got, want) != 0 {
			t.Errorf("%s: comb=%s want=%s", tc.name, got, want)
		}
	}
}

// TestClampFixedBaseHeight pins the clamping contract: [1, 8], never wider
// than the exponent.
func TestClampFixedBaseHeight(t *testing.T) {
	tests := []struct {
		h, maxBits, want int
	}{
		{0, 2048, 1},
		{-5, 2048, 1},
		{4, 2048, 4},
		{8, 2048, 8},
		{12, 2048, 8},
		{8, 3, 3},
		{8, 1, 1},
		{2, 1, 1},
	}
	for _, tc := range tests {
		if got := ClampFixedBaseHeight(tc.h, tc.maxBits); got != tc.want {
			t.Errorf("ClampFixedBaseHeight(%d, %d) = %d, want %d", tc.h, tc.maxBits, got, tc.want)
		}
	}
}

// TestChooseFixedBaseHeight sanity-checks the auto-height heuristic: larger
// batches amortize bigger tables, and the choice respects the clamp.
func TestChooseFixedBaseHeight(t *testing.T) {
	small := ChooseFixedBaseHeight(2048, 1)
	large := ChooseFixedBaseHeight(2048, 100000)
	if small > large {
		t.Errorf("height should grow with batch size: n=1 → %d, n=100000 → %d", small, large)
	}
	if large != 8 {
		t.Errorf("huge batches should saturate the height cap: got %d", large)
	}
	if got := ChooseFixedBaseHeight(1, 1000); got != 1 {
		t.Errorf("1-bit exponents must use height 1, got %d", got)
	}
}

// TestCompileExpTrivial pins the no-table guarantee: exponents 0 and 1 compile
// to empty schedules, and the width clamps to the exponent bit length.
func TestCompileExpTrivial(t *testing.T) {
	for _, e := range []Nat{Zero(), One()} {
		s := CompileExp(e, 8)
		if s.TableSize() != 0 || s.Ops() != 0 {
			t.Errorf("CompileExp(%s): table=%d ops=%d, want empty schedule", e, s.TableSize(), s.Ops())
		}
	}
	if s := CompileExp(FromUint64(3), 12); s.WindowBits() != 2 {
		t.Errorf("2-bit exponent at width 12 should clamp to 2, got %d", s.WindowBits())
	}
	if s := CompileExpAuto(FromUint64(1)); s.TableSize() != 0 {
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

// FuzzFixedBaseExp cross-checks the comb against math/big modular
// exponentiation on arbitrary base/exponent bytes.
func FuzzFixedBaseExp(f *testing.F) {
	f.Add([]byte{2}, []byte{10}, uint8(4))
	f.Add([]byte{0xff, 0xff}, []byte{1}, uint8(1))
	f.Add([]byte{7}, []byte{0}, uint8(8))
	// A three-limb modulus on the spelled-out rows and a nine-limb one on
	// addMulVW's, each under every body of the kernel.
	r := NewRNG(0xC0F)
	var monts []*Mont
	for _, bits := range []int{160, 64*rowKernelMin + 40} {
		n := r.RandBits(bits)
		n[0] |= 1
		monts = append(monts, NewMont(n))
	}
	f.Fuzz(func(t *testing.T, baseB, expB []byte, h uint8) {
		if len(baseB) > 64 || len(expB) > 24 {
			return // keep the modular reduction and comb bounded
		}
		base := FromBytes(baseB)
		e := FromBytes(expB)
		forEachBody(t, func() {
			for _, m := range monts {
				tbl := NewFixedBaseTable(m, base, 192, int(h%10))
				want := new(big.Int).Exp(toBig(Mod(base, m.N())), toBig(e), toBig(m.N()))
				if got := tbl.Exp(e); toBig(got).Cmp(want) != 0 {
					t.Fatalf("comb(%x^%x mod %s) = %s, want %s", baseB, expB, m.N(), got, want)
				}
			}
		})
	})
}

// Benchmarks for the scratch-reuse work: allocation counts are the point, so
// every benchmark reports them (run with -benchmem to see bytes as well).

func BenchmarkExpSliding2048(b *testing.B) { benchFixedVsSliding(b, false, 0) }

func BenchmarkFixedBaseExp2048H4(b *testing.B) { benchFixedVsSliding(b, true, 4) }
func BenchmarkFixedBaseExp2048H8(b *testing.B) { benchFixedVsSliding(b, true, 8) }

func benchFixedVsSliding(b *testing.B, comb bool, h int) {
	r := NewRNG(81)
	n := r.RandBits(2048)
	n[0] |= 1
	m := NewMont(n)
	base := r.RandBelow(n)
	e := r.RandBits(2048)
	var tbl *FixedBaseTable
	if comb {
		tbl = NewFixedBaseTable(m, base, 2048, h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if comb {
			tbl.Exp(e)
		} else {
			m.Exp(base, e)
		}
	}
}

func BenchmarkFixedBaseBuild2048H8(b *testing.B) {
	r := NewRNG(82)
	n := r.RandBits(2048)
	n[0] |= 1
	m := NewMont(n)
	base := r.RandBelow(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewFixedBaseTable(m, base, 2048, 8)
	}
}
