package mpint

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Interleaved (Straus) multi-exponentiation over a table shared by every
// product of a launch. A homomorphic weighted sum is Πᵢ bases[i]^wᵢ mod n,
// and a vertical model wants many of them over one ciphertext vector: one a
// feature, all over the minibatch's residuals. Run one at a time each is a
// vector of independent exponentiations — every one squaring its own
// accumulator once a weight bit, building its own odd powers, leaving
// Montgomery form into a fresh allocation — and a tree of modular products to
// fold them. Here each distinct base enters Montgomery form once and gets its
// odd powers once, for the whole launch, and each product keeps a single
// accumulator that is squared once a bit position whatever the number of its
// terms: ⌈bits⌉ squarings and one table multiply a window, on pooled scratch,
// against ≈1.2·bits multiplies a term and a product a term.

// Term is one factor of a multi-exponentiation, bases[Index]^Weight, or with
// Neg set bases[Index]^−Weight — one ciphertext-scalar product of a
// homomorphic weighted sum, the sign of its scalar apart from its magnitude.
type Term struct {
	Index  int
	Weight uint64
	Neg    bool
}

// ErrTermIndex reports a term whose Index is outside the base vector.
var ErrTermIndex = errors.New("mpint: multi-exponentiation term refers outside the base vector")

// ErrNotInvertible reports a negative term whose base has no inverse modulo
// the launch's modulus.
var ErrNotInvertible = errors.New("mpint: multi-exponentiation base has no inverse")

// CheckTerms reports the first term of sums that does not index a vector of
// the given length, wrapping ErrTermIndex.
func CheckTerms(bases int, sums [][]Term) error {
	for j, sum := range sums {
		for _, tm := range sum {
			if tm.Index < 0 || tm.Index >= bases {
				return fmt.Errorf("%w: sum %d refers to element %d of %d", ErrTermIndex, j, tm.Index, bases)
			}
		}
	}
	return nil
}

// multiExpMaxWidth is the widest window MultiExpWidth considers: 32 odd
// powers a base, which only a launch with thousands of wide terms a base
// amortises.
const multiExpMaxWidth = 6

// MultiExpWidth picks the sliding-window width of a launch over `bases`
// distinct bases and `terms` non-zero terms whose widest weight has maxBits
// bits: the width minimising the table's multiplies — multiExpRowMuls a base
// — plus the window multiplies of the lanes, bits/(w+1) expected a term (a
// window covers its w bits and the zero run behind it, one bit on average).
// The squarings do not depend on the width and stay out of the comparison.
// The count is kept in integers, scaled by 420 = lcm(2..7), so the choice —
// and the modelled cost that follows from it — is the same on every
// architecture; on a tie the narrower window, with half the table, wins. A
// width never exceeds the widest weight: unit weights get w = 1, whose table
// is the bases themselves in Montgomery form, no odd powers.
func MultiExpWidth(bases, terms, maxBits int) uint {
	const scale = 420
	best, bestCost := uint(1), int64(-1)
	for w := uint(1); w <= multiExpMaxWidth && int(w) <= maxBits; w++ {
		cost := scale*int64(bases)*multiExpRowMuls(w) + int64(terms)*int64(maxBits)*(scale/int64(w+1))
		if bestCost < 0 || cost < bestCost {
			best, bestCost = w, cost
		}
	}
	return best
}

// multiExpRowMuls is the Montgomery multiplies one base's table row costs at
// width w: into Montgomery form, and past w = 1 a squaring and a multiply an
// odd power above the first.
func multiExpRowMuls(w uint) int64 {
	if w == 1 {
		return 1
	}
	return 1 + int64(1)<<(w-1)
}

// MultiExpTable is the shared precomputation of one launch: for every base a
// sum of the launch refers to with a non-zero weight, its odd powers b, b³, …,
// b^(2^w−1) in Montgomery form — and for every base a negative term refers
// to, the odd powers of b⁻¹, a row of its own — as 52-bit digits where the
// context's chains run on amm52, as limbs elsewhere. NewMultiExpTable plans it (which bases,
// which width) without a multiply; BuildRow fills one base's row, rows being
// independent so a launch can spread them over its lanes; Eval then computes
// one product, any number of them concurrently. Tables are pooled on their
// context: Release hands one back once its products are out.
type MultiExpTable struct {
	m     *Mont
	f     *mont52 // non-nil: entries are digits and amm52 multiplies them
	bases []Nat
	w     uint
	// stride is the words of one entry (k limbs, or the digits padded to whole
	// registers), entries the odd powers of one row.
	stride, entries int
	slot            []int32      // 2·base index + Neg → row, −1 for a (base, sign) no term refers to
	refs            []int32      // row → 2·base index + Neg
	inverted        int          // rows built from an inverse
	terms           int          // non-zero terms over all sums
	bad             atomic.Int64 // 1 + the base index of a row with no inverse, 0 while none
	slab            []Word       // backing of tbl, kept across launches
	tbl             []Word       // rows·entries entries of stride words, 64-byte aligned
	one             []Word       // the digits of 1: multiplying by it leaves the digit domain
}

// NewMultiExpTable plans the table of the launch that computes, for every
// sum, Π bases[t.Index]^(±t.Weight) mod n. Zero weights are no terms. A term
// that refers outside bases rejects with ErrTermIndex.
func (m *Mont) NewMultiExpTable(bases []Nat, sums [][]Term) (*MultiExpTable, error) {
	if err := CheckTerms(len(bases), sums); err != nil {
		return nil, err
	}
	t, _ := m.tables.Get().(*MultiExpTable)
	if t == nil {
		t = &MultiExpTable{m: m}
	}
	t.bases, t.terms, t.inverted = bases, 0, 0
	t.bad.Store(0)
	if cap(t.slot) < 2*len(bases) {
		t.slot = make([]int32, 2*len(bases))
	}
	t.slot, t.refs = t.slot[:2*len(bases)], t.refs[:0]
	for i := range t.slot {
		t.slot[i] = -1
	}
	maxBits := 0 // the widest weight
	for _, sum := range sums {
		for _, tm := range sum {
			if tm.Weight == 0 {
				continue
			}
			t.terms++
			maxBits = max(maxBits, bits.Len64(tm.Weight))
			if ref := tm.ref(); t.slot[ref] < 0 {
				t.slot[ref] = int32(len(t.refs))
				t.refs = append(t.refs, ref)
				if tm.Neg {
					t.inverted++
				}
			}
		}
	}
	t.w = MultiExpWidth(len(t.refs), t.terms, maxBits)
	t.entries = 1 << (t.w - 1)
	t.f, t.stride = m.ifma(), m.k
	if t.f != nil {
		t.stride = len(t.f.n)
	}
	need := len(t.refs) * t.entries * t.stride
	if t.f != nil {
		need += t.stride // the digits of 1
	}
	if len(t.slab) < need+7 {
		t.slab = make([]Word, need+7)
	}
	t.tbl = align64(t.slab)[:need]
	if t.f != nil {
		t.one = t.tbl[need-t.stride:]
		clear(t.one)
		t.one[0] = 1
	}
	return t, nil
}

// Release returns the table to its context's pool. Nothing may use it after.
func (t *MultiExpTable) Release() {
	t.bases = nil
	t.m.tables.Put(t)
}

// ref is the term's key in the table's slot map: its base and its sign.
func (tm Term) ref() int32 {
	if tm.Neg {
		return int32(2*tm.Index + 1)
	}
	return int32(2 * tm.Index)
}

// Rows is the number of distinct (base, sign) pairs the launch refers to: the
// rows to build.
func (t *MultiExpTable) Rows() int { return len(t.refs) }

// Inversions is the rows built from an inverse, one ModInverse each.
func (t *MultiExpTable) Inversions() int { return t.inverted }

// Err reports, once every row is built, a base a negative term refers to that
// has no inverse, wrapping ErrNotInvertible; the table's products are then
// meaningless and must not be evaluated.
func (t *MultiExpTable) Err() error {
	if b := t.bad.Load(); b != 0 {
		return fmt.Errorf("%w: base %d", ErrNotInvertible, b-1)
	}
	return nil
}

// Terms is the number of non-zero terms over all sums of the launch.
func (t *MultiExpTable) Terms() int { return t.terms }

// Entries is the table size: Rows rows of 2^(w−1) odd powers at width w.
func (t *MultiExpTable) Entries() int { return len(t.refs) * t.entries }

// RowMuls is the Montgomery multiplies BuildRow spends on one row.
func (t *MultiExpTable) RowMuls() int64 { return multiExpRowMuls(t.w) }

// entry is entry i of the table, row i/entries: odd power 2·(i mod entries)+1
// of that row's base.
func (t *MultiExpTable) entry(i int) []Word {
	return t.tbl[i*t.stride : (i+1)*t.stride : (i+1)*t.stride]
}

// mul is the table's Montgomery multiply, in whichever domain its entries
// live; dst may alias an operand.
func (t *MultiExpTable) mul(dst, a, b []Word, sc *mulScratch) {
	if f := t.f; f != nil {
		amm52(dst, a, b, f.n, f.d, f.k0)
		return
	}
	t.m.mulInto(dst, a, b, sc)
}

// acc returns the lane's working buffer, one entry wide, out of sc's slab.
func (t *MultiExpTable) acc(sc *mulScratch) []Word {
	sc.grow(t.stride + 7)
	return align64(sc.slab)[:t.stride:t.stride]
}

// BuildRow computes row r: the base, reduced when it arrives ≥ n — or, for a
// negative term's row, its inverse mod n, walked in the scratch's division
// buffer — into Montgomery form and from there its odd powers. A base with no
// inverse leaves its row unbuilt and Err reporting it. Rows may be built
// concurrently; each must be built before a product that refers to it.
func (t *MultiExpTable) BuildRow(r int) {
	m := t.m
	sc := m.getScratch()
	defer m.putScratch(sc)
	ref := t.refs[r]
	var base Nat
	if ref&1 == 0 {
		base = m.reduce(t.bases[ref>>1], sc)
	} else {
		x := trim(t.bases[ref>>1])
		sc.growDiv(modInverseWords(len(x), m.k))
		inv, ok := modInverseInto(x, m.n, sc.div)
		if !ok {
			t.bad.CompareAndSwap(0, int64(ref>>1)+1)
			return
		}
		base = inv
	}
	first, tmp := t.entry(r*t.entries), t.acc(sc)
	if f := t.f; f != nil {
		toDigits(tmp, trim(base), 1)
		t.mul(first, tmp, f.rr, sc)
	} else {
		t.mul(first, base, m.rr, sc)
	}
	if t.entries == 1 {
		return
	}
	t.mul(tmp, first, first, sc)
	for i := 1; i < t.entries; i++ {
		t.mul(t.entry(r*t.entries+i), t.entry(r*t.entries+i-1), tmp, sc)
	}
}

// windows recodes every non-zero weight of sum into sliding windows, from the
// low end: skip the zero run, take w bits, repeat — so every window is an odd
// digit d at a bit position p, its factor being entry (d−1)/2 of the base's row
// raised to 2^p. visit gets the position and the entry's index in the table.
func (t *MultiExpTable) windows(sum []Term, visit func(pos int, entry uint32)) {
	mask := uint64(1)<<t.w - 1
	for _, tm := range sum {
		row := uint32(t.slot[tm.ref()]) * uint32(t.entries)
		for e, p := tm.Weight, 0; e != 0; {
			z := bits.TrailingZeros64(e)
			e >>= uint(z)
			p += z
			visit(p, row+uint32(e&mask)>>1)
			e >>= t.w
			p += int(t.w)
		}
	}
}

// LaneMuls is the Montgomery multiplies Eval spends on sum: a squaring a bit
// position below its topmost window, a multiply a window (the first is a
// copy, and leaving Montgomery form takes its place).
func (t *MultiExpTable) LaneMuls(sum []Term) int64 {
	n, top := 0, 0
	t.windows(sum, func(pos int, _ uint32) {
		n++
		top = max(top, pos)
	})
	return int64(n + top)
}

// Eval returns Π bases[t.Index]^(±t.Weight) mod n over the terms of sum, which
// must be one of the sums the table was planned over, after its rows are
// built: 1 for a sum without a non-zero term. The windows of all its terms are
// bucketed by bit position, and one accumulator walks the positions top-down —
// squared once a position, multiplied by the table entry of every window that
// sits there. Buckets and accumulator live in the pooled scratch, and the
// product is written into dst's limbs where they hold it (resize): the call
// allocates its result where they do not, and nothing else.
func (t *MultiExpTable) Eval(dst Nat, sum []Term) Nat {
	m := t.m
	sc := m.getScratch()
	defer m.putScratch(sc)

	// Counting sort by position, highest first: cur[p] is where the next
	// window at p goes, and once all are placed, where bucket p ends.
	var cur [WordBits]int32
	n := 0
	t.windows(sum, func(pos int, _ uint32) {
		cur[pos]++
		n++
	})
	if n == 0 {
		z := resize(dst, 1)
		z[0] = 1
		return z
	}
	off := int32(0)
	for p := WordBits - 1; p >= 0; p-- {
		off, cur[p] = off+cur[p], off
	}
	if len(sc.win) < n {
		sc.win = make([]uint32, n)
	}
	win := sc.win[:n]
	t.windows(sum, func(pos int, entry uint32) {
		win[cur[pos]] = entry
		cur[pos]++
	})

	acc := t.acc(sc)
	i := 0
	for p := WordBits - 1; p >= 0; p-- {
		if i > 0 {
			t.mul(acc, acc, acc, sc)
		}
		for ; i < int(cur[p]); i++ {
			if e := t.entry(int(win[i])); i == 0 {
				copy(acc, e)
			} else {
				t.mul(acc, acc, e, sc)
			}
		}
	}

	// Out of Montgomery form, out of the scratch the next lane will reuse.
	z := resize(dst, m.k)
	if t.f == nil {
		return m.mulInto(z, acc, One(), sc)
	}
	// acc·R₅₂⁻¹ is the product itself, below 2n like every digit product.
	t.mul(acc, acc, t.one, sc)
	lo := sc.t[:m.k+1]
	fromDigits(lo, acc, 1)
	m.reduceOnce(z, lo[:m.k], lo[m.k])
	return trim(z)
}
