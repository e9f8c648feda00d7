package mpint

import "math/bits"

// Lim–Lee fixed-base comb exponentiation. When one base serves a whole
// vector of exponents — Paillier's r^n noise terms, fixed-generator
// commitments — the standard sliding window wastes its table on every
// element: the table depends only on the base. The comb instead precomputes
// 2^h combined powers of the shared base once, after which every exponent of
// up to maxExpBits bits costs only ⌈maxExpBits/h⌉ squarings plus at most
// that many multiplies, independent of h's table size.
//
// Layout: write the exponent's bits in an h-row matrix, row i holding bits
// {i·cols, i·cols+1, ...} (cols = ⌈maxExpBits/h⌉). Column `col` then selects
// the table entry tbl[j] = ∏_{i : bit_i(j)=1} base^(2^(i·cols)), and scanning
// columns high→low with one squaring per step reassembles base^e.

// FixedBaseTable is the per-base precomputation: 2^h combined powers in
// Montgomery form. Building one costs (h−1)·cols squarings and 2^h−h−1
// multiplies; it is immutable afterwards and safe for concurrent Exp calls
// (the simulated GPU lanes share one table).
type FixedBaseTable struct {
	m       *Mont
	base    Nat // base mod n
	h       int // comb height (rows)
	cols    int // ⌈maxExpBits/h⌉ columns = squarings per evaluation
	maxBits int
	tbl     []Nat // 2^h entries of exactly k limbs, Montgomery form; tbl[0] = R mod n
}

// ClampFixedBaseHeight bounds a comb height to [1, 8] and to the exponent
// width itself: a 1-bit exponent gets a 1-row comb (2-entry table), never a
// 2^h-entry one.
func ClampFixedBaseHeight(h, maxExpBits int) int {
	if h < 1 {
		h = 1
	}
	if h > 8 {
		h = 8
	}
	if maxExpBits >= 1 && h > maxExpBits {
		h = maxExpBits
	}
	return h
}

// ChooseFixedBaseHeight picks the comb height minimizing total Montgomery
// multiplies for a batch of n exponents of maxExpBits bits: the one-off
// build cost ((h−1)·cols squarings + 2^h−h−1 products) plus n evaluations of
// ≈ 2·cols multiplies each.
func ChooseFixedBaseHeight(maxExpBits, n int) int {
	if maxExpBits < 1 {
		maxExpBits = 1
	}
	if n < 1 {
		n = 1
	}
	best, bestCost := 1, int64(1)<<62
	for h := 1; h <= 8 && h <= maxExpBits; h++ {
		cols := int64((maxExpBits + h - 1) / h)
		build := int64(h-1)*cols + int64(1)<<h - int64(h) - 1
		cost := build + int64(n)*2*cols
		if cost < bestCost {
			best, bestCost = h, cost
		}
	}
	return best
}

// FixedBaseBuildMuls returns the Montgomery multiply count of building a
// table at height h for maxExpBits-bit exponents — the number the ghe cost
// model charges for the table-build launch.
func FixedBaseBuildMuls(maxExpBits, h int) int64 {
	h = ClampFixedBaseHeight(h, maxExpBits)
	cols := int64((maxExpBits + h - 1) / h)
	return int64(h-1)*cols + int64(1)<<h - int64(h) - 1
}

// FixedBaseExpMuls returns the worst-case Montgomery multiply count of one
// comb evaluation (cols squarings + cols multiplies) at height h.
func FixedBaseExpMuls(maxExpBits, h int) int64 {
	h = ClampFixedBaseHeight(h, maxExpBits)
	return 2 * int64((maxExpBits+h-1)/h)
}

// NewFixedBaseTable precomputes the comb for base over m's modulus, covering
// exponents up to maxExpBits bits at height h (clamped to [1, 8] and to
// maxExpBits; pass h ≤ 0 to auto-pick for a single evaluation).
func NewFixedBaseTable(m *Mont, base Nat, maxExpBits, h int) *FixedBaseTable {
	if maxExpBits < 1 {
		maxExpBits = 1
	}
	if h <= 0 {
		h = ChooseFixedBaseHeight(maxExpBits, 1)
	}
	h = ClampFixedBaseHeight(h, maxExpBits)
	cols := (maxExpBits + h - 1) / h
	t := &FixedBaseTable{m: m, base: Mod(base, m.n), h: h, cols: cols, maxBits: maxExpBits}

	sc := m.getScratch()
	defer m.putScratch(sc)
	// Row generators g[i] = base^(2^(i·cols)) in Montgomery form: each row
	// squares the previous one cols times, in place in its own buffer.
	g := make([]Nat, h)
	g[0] = m.mulInto(make(Nat, m.k), t.base, m.rr, sc)[:m.k]
	for i := 1; i < h; i++ {
		g[i] = make(Nat, m.k)
		copy(g[i], g[i-1])
		for s := 0; s < cols; s++ {
			m.mulInto(g[i], g[i], g[i], sc)
		}
	}
	// tbl[j] = ∏_{i : bit_i(j)=1} g[i], built by peeling the lowest set bit so
	// each entry costs at most one multiply.
	tbl := make([]Nat, 1<<h)
	tbl[0] = m.one.Words(m.k)
	for j := 1; j < len(tbl); j++ {
		low := j & -j
		i := bits.TrailingZeros(uint(low))
		if j == low {
			tbl[j] = g[i]
		} else {
			tbl[j] = m.mulInto(make(Nat, m.k), tbl[j^low], g[i], sc)[:m.k]
		}
	}
	t.tbl = tbl
	return t
}

// Height returns the comb height h.
func (t *FixedBaseTable) Height() int { return t.h }

// Cols returns the column count — the squarings one evaluation performs.
func (t *FixedBaseTable) Cols() int { return t.cols }

// Entries returns the table size 2^h.
func (t *FixedBaseTable) Entries() int { return len(t.tbl) }

// MaxExpBits returns the widest exponent the comb covers.
func (t *FixedBaseTable) MaxExpBits() int { return t.maxBits }

// Base returns the (reduced) base the table was built for.
func (t *FixedBaseTable) Base() Nat { return t.base }

// Exp returns base^e mod n via the comb. Exponents wider than the table's
// maxExpBits fall back to the generic sliding window (correct, just not
// precomputed); e == 0 and e == 1 short-circuit without running the comb
// loop.
func (t *FixedBaseTable) Exp(e Nat) Nat {
	eBits := e.BitLen()
	if eBits == 0 {
		return One()
	}
	if eBits == 1 {
		return t.base.Clone()
	}
	if eBits > t.maxBits {
		return t.m.Exp(t.base, e)
	}
	m := t.m
	sc := m.getScratch()
	defer m.putScratch(sc)
	sc.grow(m.k)
	acc := sc.buf(m.k, 0)
	seeded := false // acc holds nothing until the first non-zero column
	for col := t.cols - 1; col >= 0; col-- {
		if seeded {
			m.mulInto(acc, acc, acc, sc)
		}
		idx := 0
		for i := 0; i < t.h; i++ {
			if b := i*t.cols + col; b < eBits && e.Bit(b) == 1 {
				idx |= 1 << i
			}
		}
		if idx == 0 {
			continue
		}
		if seeded {
			m.mulInto(acc, acc, t.tbl[idx], sc)
		} else {
			copy(acc, t.tbl[idx])
			seeded = true
		}
	}
	if !seeded {
		return One()
	}
	// Fresh allocation out of Montgomery form (must not alias the scratch).
	return m.mulInto(make(Nat, m.k), acc, One(), sc)
}
