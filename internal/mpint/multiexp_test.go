package mpint

import (
	"bytes"
	"errors"
	"math/big"
	"testing"
)

// multiExp runs a whole launch through the table: plan, every row, every
// product — or the table's error once its rows are built.
func multiExp(t testing.TB, m *Mont, bases []Nat, sums [][]Term) ([]Nat, error) {
	t.Helper()
	tbl, err := m.NewMultiExpTable(bases, sums)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Release()
	for r := 0; r < tbl.Rows(); r++ {
		tbl.BuildRow(r)
	}
	if err := tbl.Err(); err != nil {
		return nil, err
	}
	out := make([]Nat, len(sums))
	for j, sum := range sums {
		out[j] = tbl.Eval(nil, sum)
	}
	return out, nil
}

// bigMultiExp is the oracle: every term through math/big's Exp — over
// math/big's inverse for a negative one — folded with its Mul and Mod. It
// reports false when a negative term's base has no inverse.
func bigMultiExp(bases []Nat, sum []Term, n Nat) (*big.Int, bool) {
	bn, prod := toBig(n), big.NewInt(1)
	for _, tm := range sum {
		base := toBig(bases[tm.Index])
		if tm.Neg && tm.Weight != 0 {
			if base = new(big.Int).ModInverse(base, bn); base == nil {
				return nil, false
			}
		}
		prod.Mul(prod, new(big.Int).Exp(base, new(big.Int).SetUint64(tm.Weight), bn))
		prod.Mod(prod, bn)
	}
	return prod.Mod(prod, bn), true
}

// checkMultiExp holds a launch to the oracle: every product when every
// negative term's base is invertible, ErrNotInvertible when one is not.
func checkMultiExp(t testing.TB, m *Mont, bases []Nat, sums [][]Term) {
	t.Helper()
	invertible := true
	for _, sum := range sums {
		if _, ok := bigMultiExp(bases, sum, m.n); !ok {
			invertible = false
		}
	}
	out, err := multiExp(t, m, bases, sums)
	if !invertible {
		if !errors.Is(err, ErrNotInvertible) {
			t.Fatalf("%d limbs, %d bases, sums %v: error %v, want ErrNotInvertible", m.k, len(bases), sums, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%d limbs, %d bases: %v", m.k, len(bases), err)
	}
	for j, got := range out {
		if want, _ := bigMultiExp(bases, sums[j], m.n); toBig(got).Cmp(want) != 0 || len(got) != len(trim(got)) {
			t.Fatalf("%d limbs, %d bases, sum %d of %d (%v): got %s, math/big says %s",
				m.k, len(bases), j, len(sums), sums[j], got, want)
		}
	}
}

// TestMultiExpAgainstBig holds the kernel to math/big at every kernel modulus
// size under every body, on the shapes the vertical models launch — dense
// 10-bit weights over a shared minibatch, the same with random signs,
// unit-weight histograms that partition it — and on the operands a chain is
// most likely to get wrong: mixed-sign and all-negative sums, a base both
// signs refer to, and a negative term over a base with no inverse.
func TestMultiExpAgainstBig(t *testing.T) {
	r := NewRNG(0x5712A05)
	for _, limbs := range kernelLimbs {
		n := randOdd(r, 64*limbs)
		bases := make([]Nat, 24)
		for i := range bases {
			bases[i] = r.RandBelow(n)
		}
		dense := make([][]Term, 5)
		signed := make([][]Term, 5)
		for j := range dense {
			for i := range bases {
				w := uint64(r.Intn(1 << 10))
				dense[j] = append(dense[j], Term{Index: i, Weight: w})
				signed[j] = append(signed[j], Term{Index: i, Weight: w, Neg: r.Intn(2) == 0})
			}
		}
		hist := make([][]Term, 6)
		for i := range bases {
			b := r.Intn(len(hist) - 1) // the last bin stays empty
			hist[b] = append(hist[b], Term{Index: i, Weight: 1})
		}
		// The bases are below a random odd n, invertible but for a vanishing
		// share; 0 and n are not.
		edgeBases := []Nat{Zero(), One(), SubWord(n, 1), n, AddWord(n, 1), AddWord(Lsh(n, 1), 3), r.RandBelow(n)}
		edge := [][]Term{
			nil,
			{{6, 0, false}, {2, 0, false}},
			{{6, 1, false}},
			{{2, ^uint64(0), false}, {6, ^uint64(0), false}, {6, 1, false}, {2, 3, false}},
			{{5, 77, false}, {4, 1 << 63, false}, {3, 12345, false}, {1, 99, false}},
			{{0, 5, false}, {6, 9, false}},
			{{6, 3, false}, {5, 2, false}, {6, 3, false}, {1, 0, false}, {4, 1, false}},
			{{6, 5, true}, {2, 9, false}, {6, 5, false}},        // a base both signs refer to: b^5·b^−5 = 1
			{{6, 3, true}, {2, ^uint64(0), true}, {1, 7, true}}, // all negative
			{{0, 0, true}, {3, 0, true}, {4, 1, true}},          // zero weights over bases with no inverse are no terms
		}
		forEachBody(t, func() {
			m := NewMont(n)
			checkMultiExp(t, m, bases, dense)
			checkMultiExp(t, m, bases, signed)
			checkMultiExp(t, m, bases, hist)
			checkMultiExp(t, m, edgeBases, edge)
			for _, bad := range []int{0, 3} { // 0 and n have no inverse
				checkMultiExp(t, m, edgeBases, [][]Term{{{6, 2, false}}, {{1, 4, true}, {bad, 1, true}}})
			}
			checkMultiExp(t, m, nil, [][]Term{nil, {}})
			checkMultiExp(t, m, bases, nil)
		})
	}
}

// TestMultiExpWidthRule pins the window width at the shapes the issue sized
// the kernel on — a Hetero LR host-batch (32 residuals, 8 dense sums, 10-bit
// weights), one wide exponentiation, an SBT node-feature (512 samples spread
// over 64 bins, unit weights) — and what follows from it: the multiplies the
// table and the lanes are priced at, and that unit weights build no odd
// powers.
func TestMultiExpWidthRule(t *testing.T) {
	for _, tc := range []struct {
		bases, terms, bits int
		want               uint
	}{
		{32, 8 * 32, 10, 3}, // 160 + 640 multiplies; w = 4 ties (288 + 512) and loses on table size
		{1, 1, 64, 3},
		{512, 512, 1, 1},
		{32, 8 * 32, 1, 1}, // a width never exceeds the widest weight
		{32, 8 * 32, 2, 2},
		{0, 0, 0, 1},
		{1, 4096, 64, 6},       // a fixed base in all but name
		{256, 160 * 32, 10, 4}, // Hetero NN: each sum sees one unit's 32 of the 256 deltas
	} {
		if got := MultiExpWidth(tc.bases, tc.terms, tc.bits); got != tc.want {
			t.Errorf("MultiExpWidth(%d bases, %d terms, %d bits) = %d, want %d", tc.bases, tc.terms, tc.bits, got, tc.want)
		}
	}

	r := NewRNG(0x817D)
	m := NewMont(randOdd(r, 2048))
	bases := make([]Nat, 32)
	for i := range bases {
		bases[i] = r.RandBelow(m.n)
	}
	unit := make([][]Term, 4)
	weighted := make([][]Term, 8)
	for i := range bases {
		unit[i%len(unit)] = append(unit[i%len(unit)], Term{Index: i, Weight: 1})
		for j := range weighted {
			weighted[j] = append(weighted[j], Term{Index: i, Weight: 1<<9 | uint64(r.Intn(1<<9))})
		}
	}
	tbl, err := m.NewMultiExpTable(bases, unit)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.w != 1 || tbl.Entries() != len(bases) || tbl.RowMuls() != 1 || tbl.Terms() != len(bases) {
		t.Errorf("unit weights: width %d, %d entries for %d bases, %d multiplies a row, %d terms",
			tbl.w, tbl.Entries(), len(bases), tbl.RowMuls(), tbl.Terms())
	}
	// Eight samples a bin at bit position 0: seven multiplies and the way out.
	if got := tbl.LaneMuls(unit[0]); got != 8 {
		t.Errorf("unit weights: %d multiplies a lane of 8 terms, want 8", got)
	}
	tbl.Release()

	tbl, err = m.NewMultiExpTable(bases, weighted)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Release()
	if tbl.w != 3 || tbl.Rows() != 32 || tbl.Entries() != 32*4 || tbl.RowMuls() != 5 || tbl.Terms() != 256 {
		t.Errorf("10-bit weights: width %d, %d rows, %d entries, %d multiplies a row, %d terms",
			tbl.w, tbl.Rows(), tbl.Entries(), tbl.RowMuls(), tbl.Terms())
	}
	// The issue's estimate is 10 + 32·2.5 = 90 multiplies a lane; the exact
	// count depends on the weights' bits and must stay in its neighbourhood,
	// far under the 32·(12 + 2) of an exponentiation and a product a term.
	for j, sum := range weighted {
		if got := tbl.LaneMuls(sum); got < 70 || got > 110 {
			t.Errorf("10-bit weights: lane %d costs %d multiplies, want about 90", j, got)
		}
	}
}

func TestMultiExpRejectsIndexOutOfRange(t *testing.T) {
	m := NewMont(FromUint64(0xFFFFFFFFFFFFFFC5))
	bases := []Nat{FromUint64(2), FromUint64(3)}
	for _, sums := range [][][]Term{
		{{{2, 1, false}}},
		{{{0, 1, false}}, {{1, 1, false}, {-1, 1, true}}},
		{{{7, 0, true}}}, // a zero weight is no term, its index is still checked
	} {
		tbl, err := m.NewMultiExpTable(bases, sums)
		if !errors.Is(err, ErrTermIndex) || tbl != nil {
			t.Errorf("sums %v: table %v, error %v, want ErrTermIndex", sums, tbl, err)
		}
	}
}

// FuzzMultiExp holds the kernel to math/big on fuzzed launches: 0–40 bases
// (0, 1, n−1, n+1, 2n+3, or drawn from the input, reduced or a limb past the
// modulus), 0–12 sums of up to 15 terms whose indices repeat and arrive in any
// order, weights 0, 1, 2⁶⁴−1 or drawn at a fuzzed bit length, either sign —
// a negative term over a base with no inverse (0, n, a shared factor of n)
// must fail the table with ErrNotInvertible — under every body the host has.
func FuzzMultiExp(f *testing.F) {
	for _, limbs := range kernelLimbs {
		f.Add(bytes.Repeat([]byte{0xFF}, 8*limbs), bytes.Repeat([]byte{0xA5, 0x07, 0x3C}, 3*limbs), []byte{3, 0, 9, 1, 10, 2, 11, 3, 200, 7, 0x55, 0xAA}, uint8(12), uint8(4))
	}
	f.Fuzz(func(t *testing.T, nb, bb, tb []byte, nBases, nSums uint8) {
		n := fuzzModulus(nb)
		if n == nil {
			return
		}
		bases := make([]Nat, nBases%41)
		for i := range bases {
			kind := byte(5)
			if len(bb) > 0 {
				kind = bb[i%len(bb)] % 8
			}
			switch kind {
			case 0:
				bases[i] = Zero()
			case 1:
				bases[i] = One()
			case 2:
				bases[i] = SubWord(n, 1)
			case 3:
				bases[i] = AddWord(n, 1)
			case 4:
				bases[i] = AddWord(Lsh(n, 1), 3)
			case 5, 6:
				bases[i] = Mod(limbsFrom(bb, 5*i, len(n)), n)
			default:
				bases[i] = trim(limbsFrom(bb, 3*i, len(n)+1))
			}
		}
		next := func() byte {
			if len(tb) == 0 {
				return 0
			}
			b := tb[0]
			tb = tb[1:]
			return b
		}
		sums := make([][]Term, nSums%13)
		for j := range sums {
			if len(bases) == 0 {
				break
			}
			for c := int(next() % 16); c > 0; c-- {
				at := next()
				tm := Term{Index: int(at>>1) % len(bases), Neg: at&1 == 1}
				switch kind := next(); kind % 8 {
				case 0:
				case 1:
					tm.Weight = 1
				case 2:
					tm.Weight = ^uint64(0)
				default:
					for i := 0; i < 8; i++ {
						tm.Weight = tm.Weight<<8 | uint64(next())
					}
					tm.Weight >>= kind / 8 * 2 // 0 to 62 bits off the top
				}
				sums[j] = append(sums[j], tm)
			}
		}
		forEachBody(t, func() { checkMultiExp(t, NewMont(n), bases, sums) })
	})
}
