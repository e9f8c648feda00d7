package mpint

import "sync"

// One operand a lane. amm52 spreads one multiply over the eight 64-bit lanes
// of a ZMM register and keeps the reduction digit on a scalar chain beside
// them; amm52x8 (amm52x8_amd64.s) gives each lane a multiply of its own. An
// operand of a lane group is transposed: row j, eight words, holds digit j of
// eight values, so a row of the product is plain vector code with a reduction
// digit per lane, and nothing waits on a scalar chain. Each lane has its own
// modulus digits and its own k0, so the lanes of a group may share a modulus
// (a launch's ciphertexts under one key) or not (a window of prime
// candidates).
//
// This file owns the layout and the two walks over it. Both enter through
// R₅₂² and leave through R₆₄ as expMont52 does, and each lane ends in the one
// canonical reduction of its own chain: what a lane hands back is bit for bit
// expMont's.

// groupLanes is how many chains a lane group runs at once.
const groupLanes = 8

// groupMinLanes is the fewest real lanes from which a group of d-digit chains
// runs on amm52x8 — a short group is padded to eight, so it costs a full one —
// instead of one chain at a time on amm52: the break-even fill, eight times a
// group's cost a chain over a lone chain's. BenchmarkExpKernels, half-width
// exponent, amm52 → amm52x8 a chain with the transposition in and out, best
// of six runs on the two-core reference box: 24.2 → 6.8 µs at 10 digits
// (3.54×, break-even 2.3 lanes), 53.8 → 17.1 at 15 (2.5), 94.7 → 37.6 at 20
// (3.2), 240 → 120 at 30 (4.0), 478 → 272 at 40 (4.6), 1,485 → 867 at 60
// (4.7), 3,108 → 2,073 at 79 (5.3); the full-width and 30-bit exponents
// land within half a lane of these. BenchmarkRounds agrees for lanes of
// different candidates: at 1,024 bits (20 digits) 180 µs a round alone, 79.1
// a round in a group (break-even 3.5).
func groupMinLanes(d int) int {
	switch {
	case d <= 16:
		return 3
	case d <= 24:
		return 4
	case d <= 64:
		return 5
	default:
		return 6
	}
}

// walkGroup says whether fill lanes of d-digit chains run as one group walk.
// It is the rule above, read through a variable only so that the in-package
// tests can drive every fill through the walk, as they flip useIFMA.
var walkGroup = func(d, fill int) bool { return fill >= groupMinLanes(d) }

// lanes52 is the radix-2⁵² side of eight lanes, transposed: row j of n, rr
// and r holds digit j of every lane's constant (mont52's, lane by lane).
type lanes52 struct {
	d        int
	k0       [groupLanes]Word
	n, rr, r []Word // 8d words each
}

// carve points L's vectors at buf (24d words) for d-digit lanes.
func (L *lanes52) carve(d int, buf []Word) {
	w := groupLanes * d
	L.d, L.n, L.rr, L.r = d, buf[:w:w], buf[w:2*w:2*w], buf[2*w:3*w:3*w]
}

// set copies f's constants into lane l.
func (L *lanes52) set(l int, f *mont52) {
	L.k0[l] = f.k0
	for j, at := 0, l; j < L.d; j, at = j+1, at+groupLanes {
		L.n[at], L.rr[at], L.r[at] = f.n[j], f.rr[j], f.r[j]
	}
}

// lanes returns the context's constants in all eight lanes, built once, on the
// first group that shares the modulus.
func (c *chain52) lanes(f *mont52) *lanes52 {
	c.once8.Do(func() {
		L := new(lanes52)
		L.carve(f.d, align64(make([]Word, 3*groupLanes*f.d+7)))
		for l := range groupLanes {
			L.set(l, f)
		}
		c.l8 = L
	})
	return c.l8
}

// groupScratch is the working set of one group walk: the accumulator, the
// table, the kernel's 16d words and, for lanes of different moduli, their
// constants. Groups take one from a pool shared by every context and every
// goroutine, so a walk allocates nothing once the pool is warm.
type groupScratch struct {
	slab []Word
	L    lanes52
	at   int // words of slab carved
}

var groupScratches sync.Pool // *groupScratch

func getGroup(words int) *groupScratch {
	g, _ := groupScratches.Get().(*groupScratch)
	if g == nil {
		g = new(groupScratch)
	}
	if len(g.slab) < words+7 {
		g.slab = make([]Word, words+7)
	}
	g.at = 0
	return g
}

// take carves the next n words, 64-byte aligned when n is a whole number of
// rows.
func (g *groupScratch) take(n int) []Word {
	s := align64(g.slab)[g.at : g.at+n : g.at+n]
	g.at += n
	return s
}

// mul is amm52x8 over L with t as the kernel's scratch.
func (L *lanes52) mul(z, a, b, t []Word) { amm52x8(z, a, b, L.n, t, &L.k0, L.d) }

// walkShared runs the schedule's chain in every lane of acc, which holds the
// bases' digits, and leaves base^e·R₆₄ in it, below 2n: expMont52's table and
// walk, eight chains a multiply.
func (L *lanes52) walkShared(acc []Word, s *ExpSchedule, g *groupScratch) {
	w := groupLanes * L.d
	t, tbls := g.take(2*w), g.take((s.maxIdx+1)*w)
	tbl := func(i int) []Word { return tbls[i*w : (i+1)*w : (i+1)*w] }
	L.mul(tbl(0), acc, L.rr, t)
	if s.maxIdx > 0 {
		b2 := acc
		L.mul(b2, tbl(0), tbl(0), t)
		for i := 1; i <= s.maxIdx; i++ {
			L.mul(tbl(i), tbl(i-1), b2, t)
		}
	}
	first := 0
	for s.ops[first] == opSquare {
		first++
	}
	copy(acc, tbl(int(s.ops[first])))
	for _, op := range s.ops[first+1:] {
		x := acc
		if op != opSquare {
			x = tbl(int(op))
		}
		L.mul(acc, acc, x, t)
	}
	L.mul(acc, acc, L.r, t)
}

// fixedWindowBits is the window of a group whose lanes raise to exponents of
// their own, for exponents of up to bits bits: a table of 2^w powers a lane,
// then a multiply every w squarings.
func fixedWindowBits(bits int) uint {
	switch {
	case bits <= 64:
		return 3
	case bits <= 256:
		return 4
	default:
		return 5
	}
}

// walkFixed raises lane l of acc, which holds the bases' digits, to es[l] ≥ 1,
// of at most bits bits, and leaves base^e·R₆₄ in it, below 2n: fixed windows
// from the top, the same count in every lane — a shorter exponent's leading
// windows are zero, and multiply by the table's R₅₂ — and each lane's window
// picks its own table entry.
func (L *lanes52) walkFixed(acc []Word, es *[groupLanes]Nat, bits int, g *groupScratch) {
	wb := fixedWindowBits(bits)
	w, size := groupLanes*L.d, 1<<wb
	t, b, tbls := g.take(2*w), g.take(w), g.take(size*w)
	tbl := func(i uint) []Word { return tbls[int(i)*w : int(i+1)*w : int(i+1)*w] }
	clear(b)
	for l := range groupLanes {
		b[l] = 1
	}
	L.mul(tbl(0), L.rr, b, t) // R₅₂: one, in the domain
	L.mul(tbl(1), acc, L.rr, t)
	for i := uint(2); i < uint(size); i++ {
		L.mul(tbl(i), tbl(i-1), tbl(1), t)
	}
	var win [groupLanes]uint
	window := func(at int) { // bits [at, at+wb) of every lane's exponent
		i, s := at/WordBits, uint(at%WordBits)
		for l, e := range es {
			var v Word
			if i < len(e) {
				v = e[i] >> s
				if s+wb > WordBits && i+1 < len(e) {
					v |= e[i+1] << (WordBits - s)
				}
			}
			win[l] = uint(v) & (1<<wb - 1)
		}
	}
	// gather sets dst's lane l to table entry win[l].
	gather := func(dst []Word) {
		for l, v := range win {
			src := tbl(v)
			for at := l; at < w; at += groupLanes {
				dst[at] = src[at]
			}
		}
	}
	at := (bits - 1) / int(wb) * int(wb)
	window(at)
	gather(acc)
	for at -= int(wb); at >= 0; at -= int(wb) {
		for range wb {
			L.mul(acc, acc, acc, t)
		}
		window(at)
		gather(b)
		L.mul(acc, acc, b, t)
	}
	L.mul(acc, acc, L.r, t)
}

// leave writes lane l of acc — base^e·R₆₄ below 2n — as the k limbs expMont
// returns, canonical, at the head of sc's slab.
func (m *Mont) leave(acc []Word, l int, sc *mulScratch) Nat {
	k := m.k
	sc.grow(2*k + 1)
	z, t := sc.slab[:k:k], sc.slab[k:2*k+1]
	fromDigits(t, acc[l:], groupLanes)
	m.reduceOnce(z, t[:k], t[k])
	return z
}

// expMontVec sets out[i] = m.expMont(bases[i], s, scs[i]) for every i — each
// result k limbs at the head of its own scratch's slab — running each group
// of eight whose fill reaches groupMinLanes as one walk on amm52x8, and the
// rest one chain at a time. bases are below n.
func (m *Mont) expMontVec(out, bases []Nat, s *ExpSchedule, scs []*mulScratch) {
	f := m.ifma()
	for lo := 0; lo < len(bases); lo += groupLanes {
		hi := min(lo+groupLanes, len(bases))
		if f == nil || s.isOne || !walkGroup(f.d, hi-lo) {
			for i := lo; i < hi; i++ {
				out[i] = m.expMont(bases[i], s, scs[i])
			}
			continue
		}
		w := groupLanes * f.d
		g := getGroup((s.maxIdx + 4) * w)
		acc := g.take(w)
		for l := range groupLanes {
			toDigits(acc[l:], bases[min(lo+l, hi-1)], groupLanes) // a short group pads with its last chain
		}
		m.c52.lanes(f).walkShared(acc, s, g)
		for i := lo; i < hi; i++ {
			out[i] = m.leave(acc, i-lo, scs[i])
		}
		groupScratches.Put(g)
	}
}
