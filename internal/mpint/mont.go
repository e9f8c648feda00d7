package mpint

import (
	"fmt"
	"math/bits"
	"sync"
)

// Mont is a Montgomery multiplication context for a fixed odd modulus n.
// It precomputes n' = -n⁻¹ mod 2⁶⁴ (the per-word inverse used by CIOS,
// Algorithm 1 in the paper) and R² mod n for conversion into Montgomery
// form, where R = 2^(64·k) and k = len(n) in host limbs.
type Mont struct {
	n     Nat  // the modulus, trimmed: exactly k limbs
	k     int  // host limb count of n; R = 2^(64k)
	n0inv Word // -n[0]⁻¹ mod 2⁶⁴
	rr    Nat  // R² mod n
	one   Nat  // R mod n (the Montgomery form of 1)

	scratch sync.Pool // *mulScratch, reused across multiply chains
	tables  sync.Pool // *MultiExpTable, reused across launches (multiexp.go)
	c52     chain52   // the radix-2⁵² side, where chains run on it (mont52.go)
}

// NewMont builds a context for odd modulus n ≥ 3. It panics on even or
// too-small moduli, which indicate programmer error upstream.
func NewMont(n Nat) *Mont {
	n = trim(n)
	if len(n) == 0 || n.IsEven() || (len(n) == 1 && n[0] < 3) {
		panic("mpint: Montgomery modulus must be odd and >= 3")
	}
	k := len(n)
	m := &Mont{n: n.Clone(), k: k}
	m.n0inv = negInvWord(n[0])
	// R mod n and R² mod n via plain division (setup cost only).
	r := Lsh(One(), uint(k*WordBits))
	m.one = Mod(r, n)
	m.rr = Mod(Mul(m.one, m.one), n)
	return m
}

// negInvWord returns -w⁻¹ mod 2⁶⁴ for odd w using Newton iteration:
// each step doubles the number of correct low bits.
func negInvWord(w Word) Word {
	inv := w // 2^3 correct bits to start (w·w ≡ 1 mod 8 for odd w)
	for i := 0; i < 5; i++ {
		inv *= 2 - w*inv
	}
	return -inv
}

// N returns the modulus.
func (m *Mont) N() Nat { return m.n }

// Limbs returns the size of the modulus in the cost model's unit: 32-bit
// words, ⌈bitlen/32⌉ — the paper's w = 32 FRNS. ghe/cost.go's word-op
// counts, natBytes' transfer sizes and regsForLimbs are all written in this
// unit, which is where Algorithm 2's one-thread-a-run-of-words layout is
// priced; it says nothing about the host limbs the multiply below runs on.
func (m *Mont) Limbs() int { return (m.n.BitLen() + 31) / 32 }

// ToMont converts x (< n) into Montgomery form: x·R mod n.
func (m *Mont) ToMont(x Nat) Nat { return m.Mul(x, m.rr) }

// FromMont converts out of Montgomery form: x·R⁻¹ mod n.
func (m *Mont) FromMont(x Nat) Nat { return m.Mul(x, One()) }

// mulScratch holds the working buffers of a multiply chain (an
// exponentiation, a multi-exponentiation lane): the CIOS accumulator, staging for
// operands shorter than the modulus, and a slab the chain carves its table
// and its in-place accumulator from — so a chain allocates only its result.
type mulScratch struct {
	t      []Word // 2k: k+1 of them for a multiply, all for a squaring
	aw, bw []Word // k each
	slab   []Word
	div    []Word   // division buffer for a base that arrives ≥ n
	ops    []int16  // backing for the schedule Exp compiles and drops
	win    []uint32 // a multi-exponentiation lane's windows, bucketed by bit position
}

// getScratch returns a scratch buffer set sized for this modulus, drawing
// from a pool so concurrent exponentiations (the simulated GPU lanes) each
// get their own set without contention.
func (m *Mont) getScratch() *mulScratch {
	if sc, ok := m.scratch.Get().(*mulScratch); ok {
		return sc
	}
	k := m.k
	buf := make([]Word, 4*k)
	return &mulScratch{t: buf[: 2*k : 2*k], aw: buf[2*k : 3*k : 3*k], bw: buf[3*k:]}
}

func (m *Mont) putScratch(sc *mulScratch) { m.scratch.Put(sc) }

// grow makes the slab hold at least `limbs` limbs.
func (sc *mulScratch) grow(limbs int) {
	if len(sc.slab) < limbs {
		sc.slab = make([]Word, limbs)
	}
}

// growDiv makes the division buffer hold at least `limbs` limbs.
func (sc *mulScratch) growDiv(limbs int) {
	if len(sc.div) < limbs {
		sc.div = make([]Word, limbs)
	}
}

// buf returns the i-th k-limb buffer of the slab, its capacity clipped so a
// result written there can never run into its neighbour.
func (sc *mulScratch) buf(k, i int) Nat { return sc.slab[i*k : (i+1)*k : (i+1)*k] }

// operand returns x as exactly k limbs: x itself when it already is, else a
// zero-padded copy in buf. It panics when x ≥ 2^(64k) (operands must be < n).
func (m *Mont) operand(x Nat, buf []Word) []Word {
	if len(x) == m.k {
		return x
	}
	x = trim(x)
	if len(x) > m.k {
		panic(fmt.Sprintf("mpint: operand needs %d limbs, modulus has %d", len(x), m.k))
	}
	n := copy(buf, x)
	for i := n; i < len(buf); i++ {
		buf[i] = 0
	}
	return buf
}

// Mul returns a·b·R⁻¹ mod n using the CIOS (coarsely integrated operand
// scanning) method — the serial reference for the paper's Algorithm 1/2.
// Inputs must be < n.
func (m *Mont) Mul(a, b Nat) Nat {
	sc := m.getScratch()
	z := m.mulInto(make(Nat, m.k), a, b, sc)
	m.putScratch(sc)
	return z
}

// ModMulInto returns a·b mod n for a, b < n in two Montgomery multiplies,
// (a·R)·b·R⁻¹ — only one operand has to be in Montgomery form for the product
// to come out of it — writing the product into dst's limbs where they hold k
// of them (no allocation at all then) and into fresh ones where they do not.
// The intermediate lives in the pooled scratch. dst is clobbered; it may not
// share limbs with a or b.
func (m *Mont) ModMulInto(dst, a, b Nat) Nat {
	sc := m.getScratch()
	sc.grow(m.k)
	z := m.mulInto(resize(dst, m.k), m.mulInto(sc.buf(m.k, 0), a, m.rr, sc), b, sc)
	m.putScratch(sc)
	return z
}

// rowKernelMin is the modulus size, in limbs, from which a multiply runs its
// rows through addMulVW (mulCIOS: a call per row, the assembly body on amd64)
// and below which mulInto spells the rows out in Go. A call costs about 5 ns,
// ten limbs of the row itself (BenchmarkAddMulVW: 9/14/23/41 ns at 8/16/32/64
// limbs, 6.5 ns at 4 where the Go loop is as fast), so the kernel loses at 4
// and 6 limbs (87 against 61 ns and 181 against 130 ns a multiply), wins from
// 8 (145 against 197 ns) and is at 2× from 12 (310 against 630 ns);
// BenchmarkIsPrime512, whose modulus is 8 limbs, reads 1.79 against 2.71 ms.
const rowKernelMin = 8

// sqrMinLimbs is the modulus size from which a squaring runs as a half-size
// product plus a separate reduction instead of a general multiply: below it
// the doubling pass and the short off-diagonal rows — every length from k−1
// down to 1, so most end in up to seven limbs of the kernel's one-limb tail —
// cost more than the ~k²/2 limb products they save. On the kernel's rows the
// saving is thinner than it was on the Go rows, where the constant stood at
// 16: a squaring loses to mulCIOS by 6% at 16 limbs (397 against 375 ns) and
// 2% at 20, leads by 4% at 24 (768 against 799 ns), 10% at 32 and 19% at 64.
const sqrMinLimbs = 24

// mulInto is Mul writing its result into dst (which must hold at least k
// limbs) through caller-provided scratch. The product accumulates in the
// scratch and lands in dst only after the last read of an operand, so dst
// may alias a or b. The returned Nat is dst trimmed to canonical form. A
// modulus of regMaxLimbs limbs or fewer takes mul1/mul2 instead, with the
// operands in registers.
func (m *Mont) mulInto(dst Nat, a, b Nat, sc *mulScratch) Nat {
	k := m.k
	if k <= regMaxLimbs && useRegs && len(a) <= k && len(b) <= k {
		return m.mulRegs(dst, a, b)
	}
	z := dst[:k]
	aw := m.operand(a, sc.aw)
	if k >= sqrMinLimbs && len(a) > 0 && len(b) == len(a) && &a[0] == &b[0] {
		m.sqrCIOS(z, aw, sc.t)
		return trim(z)
	}
	bw := m.operand(b, sc.bw)
	if k >= rowKernelMin {
		m.mulCIOS(z, aw, bw, sc.t)
		return trim(z)
	}
	n, n0inv, t := m.n[:k], m.n0inv, sc.t[:k+1]
	aw, bw = aw[:k], bw[:k]
	for i := range t {
		t[i] = 0
	}
	// t stays below 2n across iterations, so it fits k limbs plus t[k] ≤ 1,
	// shifted down a limb per row.
	for i := 0; i < k; i++ {
		// t += a · b[i]
		bi := bw[i]
		var c Word
		for j := 0; j < k; j++ {
			hi, lo := bits.Mul64(aw[j], bi)
			lo, cc := bits.Add64(lo, t[j], 0)
			hi += cc
			t[j], cc = bits.Add64(lo, c, 0)
			c = hi + cc
		}
		tk, top := bits.Add64(t[k], c, 0)

		// mi = t[0] · n' mod 2⁶⁴; t += mi · n; t >>= 64
		mi := t[0] * n0inv
		hi, lo := bits.Mul64(mi, n[0])
		_, cc := bits.Add64(lo, t[0], 0)
		c = hi + cc
		for j := 1; j < k; j++ {
			hi, lo := bits.Mul64(mi, n[j])
			lo, cc := bits.Add64(lo, t[j], 0)
			hi += cc
			t[j-1], cc = bits.Add64(lo, c, 0)
			c = hi + cc
		}
		t[k-1], cc = bits.Add64(tk, c, 0)
		t[k] = top + cc
	}
	m.reduceOnce(z, t[:k], t[k])
	return trim(z)
}

// mulCIOS sets z = a·b·R⁻¹ mod n for k-limb a and b over the 2k-limb
// accumulator t, without shifting it: row i adds a·b[i] and then the multiple
// of n that clears limb i, both into t[i:i+k], and the two carry limbs meet
// in t[i+k]. z may alias a or b.
func (m *Mont) mulCIOS(z, a, b, t []Word) {
	k := m.k
	a, b, n, t := a[:k], b[:k], m.n[:k], t[:2*k]
	for i := range t[:k] {
		t[i] = 0
	}
	var over Word
	for i := 0; i < k; i++ {
		row := t[i : i+k]
		c := addMulVW(row, a, b[i])
		t[i+k], over = bits.Add64(c, addMulVW(row, n, row[0]*m.n0inv), over)
	}
	m.reduceOnce(z, t[k:], over)
}

// sqrCIOS sets z = a²·R⁻¹ mod n for a k-limb a: the off-diagonal limb
// products once, doubled, plus the diagonal, then k reduction rows — about
// 3k²/2 limb products where the general multiply does 2k². t holds 2k
// limbs; z may alias a.
func (m *Mont) sqrCIOS(z, a, t []Word) {
	k := m.k
	a, n, t := a[:k], m.n[:k], t[:2*k]
	for i := range t {
		t[i] = 0
	}
	// t = Σ_{i<j} a[i]·a[j]·B^(i+j)
	for i := 0; i < k-1; i++ {
		t[i+k] = addMulVW(t[2*i+1:i+k], a[i+1:], a[i])
	}
	// t = 2t + Σ a[i]²·B^(2i)
	var carry, top Word
	for i := 0; i < k; i++ {
		hi, lo := bits.Mul64(a[i], a[i])
		lo2 := t[2*i]<<1 | top
		hi2 := t[2*i+1]<<1 | t[2*i]>>63
		top = t[2*i+1] >> 63
		var cc Word
		t[2*i], cc = bits.Add64(lo2, lo, carry)
		t[2*i+1], carry = bits.Add64(hi2, hi, cc)
	}
	// Row i clears limb i: t += (t[i]·n' mod 2⁶⁴)·n·B^i.
	var over Word
	for i := 0; i < k; i++ {
		row := t[i : i+k]
		t[i+k], over = bits.Add64(t[i+k], addMulVW(row, n, row[0]*m.n0inv), over)
	}
	m.reduceOnce(z, t[k:], over)
}

// reduceOnce sets z = t + over·2^(64k) − n when that is non-negative, else
// z = t: the final conditional subtraction, for a value known to be < 2n.
func (m *Mont) reduceOnce(z, t []Word, over Word) {
	if subInto(z, t, m.n) != 0 && over == 0 {
		copy(z, t)
	}
}

// expWindowBits chooses the sliding-window width for an exponent of the
// given bit length, balancing table precomputation against saved multiplies.
// The returned width never exceeds the exponent's own bit length, so tiny
// exponents (0, 1, a few bits) cannot provision oversized tables.
func expWindowBits(expBits int) uint {
	var w uint
	switch {
	case expBits <= 8:
		w = 1
	case expBits <= 64:
		w = 3
	case expBits <= 512:
		w = 4
	case expBits <= 2048:
		w = 5
	default:
		w = 6
	}
	if expBits >= 1 && w > uint(expBits) {
		w = uint(expBits)
	}
	return w
}

// opSquare marks a squaring step in a compiled schedule; non-negative
// entries index the odd-power table (tbl[i] holds base^(2i+1)).
const opSquare = -1

// ExpSchedule is the recoded sliding-window plan of one exponent: the exact
// square/multiply sequence ExpWindow derives by scanning the exponent bits,
// compiled once so vector operations sharing an exponent pay the scan and
// window recoding a single time instead of once per element. A compiled
// schedule is immutable and safe for concurrent use.
type ExpSchedule struct {
	w      uint
	bits   int
	maxIdx int
	ops    []int16
	isZero bool
	isOne  bool
}

// CompileExp recodes exponent e into its sliding-window schedule at width
// w ∈ [1, 12]. The width is clamped to e's bit length; e == 0 and e == 1
// compile to empty schedules that require no odd-power table at all.
func CompileExp(e Nat, w uint) *ExpSchedule {
	s := new(ExpSchedule)
	s.compile(e, w, nil)
	return s
}

// compile fills s with the schedule of e at width w, building the op
// sequence in ops' backing array when it is large enough.
func (s *ExpSchedule) compile(e Nat, w uint, ops []int16) {
	if w < 1 || w > 12 {
		panic("mpint: CompileExp width out of range")
	}
	bits := e.BitLen()
	*s = ExpSchedule{w: w, bits: bits}
	switch bits {
	case 0:
		s.isZero = true
		s.w = 1
		return
	case 1:
		s.isOne = true
		s.w = 1
		return
	}
	if int(w) > bits {
		w = uint(bits)
		s.w = w
	}
	if need := bits + bits/int(w) + 1; cap(ops) < need {
		ops = make([]int16, 0, need)
	}
	s.ops = ops[:0]
	i := bits - 1
	for i >= 0 {
		if e.Bit(i) == 0 {
			s.ops = append(s.ops, opSquare)
			i--
			continue
		}
		// Find the longest window [i..j] (≤ w bits) ending in a 1 bit.
		j := i - int(w) + 1
		if j < 0 {
			j = 0
		}
		for e.Bit(j) == 0 {
			j++
		}
		var win uint
		for b := i; b >= j; b-- {
			s.ops = append(s.ops, opSquare)
			win = win<<1 | e.Bit(b)
		}
		idx := int(win >> 1)
		if idx > s.maxIdx {
			s.maxIdx = idx
		}
		s.ops = append(s.ops, int16(idx))
		i = j - 1
	}
}

// CompileExpAuto recodes e at the window width Exp itself would pick.
func CompileExpAuto(e Nat) *ExpSchedule { return CompileExp(e, expWindowBits(e.BitLen())) }

// Exp returns base^e mod n using left-to-right sliding-window exponentiation
// over Montgomery multiplication — the paper's "extension of the sliding
// window exponential method", reducing the multiply count from e to
// roughly log₂(e)·(1 + 1/w) plus 2^(w−1) table entries. The window width is
// chosen from the exponent size; ExpWindow fixes it explicitly.
func (m *Mont) Exp(base, e Nat) Nat {
	return m.ExpWindow(base, e, expWindowBits(e.BitLen()))
}

// ExpWindow is Exp with a caller-chosen window width w ∈ [1, 12] — exposed
// for the window-size ablation benchmark. The schedule it compiles lives
// and dies in the pooled scratch, so the call allocates only its result.
func (m *Mont) ExpWindow(base, e Nat, w uint) Nat {
	if w < 1 || w > 12 {
		panic("mpint: ExpWindow width out of range")
	}
	sc := m.getScratch()
	defer m.putScratch(sc)
	var s ExpSchedule
	s.compile(e, w, sc.ops)
	if s.ops != nil {
		sc.ops = s.ops // keep the grown backing for the next call
	}
	return m.runSched(base, &s, sc)
}

// ExpSched executes a compiled schedule against one base: base^e mod n where
// s = CompileExp(e, ·). The odd-power table and the accumulator the chain
// multiplies in place come out of one slab in the pooled scratch, so an
// exponentiation allocates only its result.
func (m *Mont) ExpSched(base Nat, s *ExpSchedule) Nat {
	sc := m.getScratch()
	defer m.putScratch(sc)
	return m.runSched(base, s, sc)
}

// ExpSchedVec sets out[i] = ExpSched(bases[i], s) for every i, running each
// group of eight's chains as one walk on amm52x8 where the host and the
// group's fill allow (mont52x8.go).
func (m *Mont) ExpSchedVec(out, bases []Nat, s *ExpSchedule) {
	if s.isZero || s.isOne {
		for i, b := range bases {
			out[i] = m.ExpSched(b, s)
		}
		return
	}
	for lo := 0; lo < len(bases); lo += groupLanes {
		n := min(groupLanes, len(bases)-lo)
		var scs [groupLanes]*mulScratch
		var xs [groupLanes]Nat
		for l := range n {
			scs[l] = m.getScratch()
			xs[l] = m.reduce(bases[lo+l], scs[l])
		}
		m.expMontVec(xs[:n], xs[:n], s, scs[:n])
		for l := range n {
			out[lo+l] = m.mulInto(make(Nat, m.k), xs[l], One(), scs[l])
			m.putScratch(scs[l])
		}
	}
}

// runSched is ExpSched on caller-held scratch.
func (m *Mont) runSched(base Nat, s *ExpSchedule, sc *mulScratch) Nat {
	base = m.reduce(base, sc)
	if s.isZero {
		return One()
	}
	if s.isOne {
		return trim(base).Clone()
	}
	// Fresh allocation out of Montgomery form: the result must not alias the
	// scratch the next chain will reuse.
	return m.mulInto(make(Nat, m.k), m.expMont(base, s, sc), One(), sc)
}

// reduce returns base mod n: base itself when it is below n, else (a ciphertext
// mod n² raised mod p²) the remainder alone, in sc's division buffer — valid
// until the scratch next reduces one.
func (m *Mont) reduce(base Nat, sc *mulScratch) Nat {
	if Cmp(base, m.n) < 0 {
		return base
	}
	sc.growDiv(len(base) + m.k + 1)
	_, r := divInto(nil, sc.div, base, m.n)
	return r
}

// EncryptN returns (1 + msg·n)·xⁿ mod n² on the context mod n² — the Paillier
// ciphertext of msg < n under g = n+1 and nonce x, for a party that knows only
// n — with s the compiled schedule of n ≥ 2: the window over n², left in
// Montgomery form in the scratch, and one multiply by the plain gᵐ = 1 + msg·n
// on the way out of it. The call allocates the ciphertext and nothing else.
func (m *Mont) EncryptN(msg, x, n Nat, s *ExpSchedule) Nat {
	sc := m.getScratch()
	defer m.putScratch(sc)
	return m.timesG(nil, trim(msg), m.expMont(m.reduce(x, sc), s, sc), trim(n), sc)
}

// EncryptNDrawVec sets out[i] = EncryptN(ms[i], r, n, s) for every i, r the
// nonce rngs[i].RandCoprime(n) would return — the same draws, rejections and
// coprimality check — drawn lane by lane into each lane's scratch instead of
// the heap, and each group of eight's rⁿ run as one walk of s (expMontVec). A ciphertext is written into
// the limbs out[i] already has where they hold it, as CRT.EncryptDrawVec
// does; out must not share limbs with ms.
func (m *Mont) EncryptNDrawVec(out, ms []Nat, n Nat, s *ExpSchedule, rngs []*RNG) {
	n = trim(n)
	k := len(n)
	for lo := 0; lo < len(ms); lo += groupLanes {
		g := min(groupLanes, len(ms)-lo)
		var scs [groupLanes]*mulScratch
		var xs [groupLanes]Nat
		for l := range g {
			sc := m.getScratch()
			sc.growDiv(k + gcdWords(k))
			scs[l], xs[l] = sc, rngs[lo+l].randCoprimeInto(sc.div[:k], sc.div[k:], n)
		}
		// Each chain takes its nonce into its slab before gᵐ takes the division
		// buffer the nonce was drawn in.
		m.expMontVec(xs[:g], xs[:g], s, scs[:g])
		for l := range g {
			out[lo+l] = m.timesG(out[lo+l], trim(ms[lo+l]), xs[l], n, scs[l])
			m.putScratch(scs[l])
		}
	}
}

// timesG returns acc·(1 + msg·n) mod n² for acc in Montgomery form — rⁿ as the
// chain leaves it in sc's slab — and trimmed msg < n: the multiply that leaves
// Montgomery form, by the plain gᵐ, written into dst's limbs where they hold
// it (resize).
func (m *Mont) timesG(dst, msg, acc, n Nat, sc *mulScratch) Nat {
	sc.growDiv(len(n) + len(msg))
	g := sc.div[:len(n)+len(msg)]
	if len(msg) == 0 {
		clear(g)
	} else {
		schoolbookInto(g, n, msg)
	}
	addInto(g, g, One()) // msg ≤ n−1: 1 + msg·n < n², no carry out
	return m.mulInto(resize(dst, m.k), acc, g, sc)
}

// ShiftPack returns Π xs[j]^(eʲ) mod n for the exponent e ≥ 2 that s compiles,
// by Horner's rule from the last value down: acc ← accᵉ·xs[j]. Each step is one
// chain — it leaves accᵉ in Montgomery form in the scratch — and one multiply
// by the plain xs[j], which takes the product out of that form into the result:
// dst's limbs where they hold it (resize), else the call's one allocation; dst
// must not share limbs with xs. With e = 2ᵇ and xs ciphertexts it is the
// packing of their plaintexts into b-bit slots, xs[0] in the lowest. xs is not
// empty.
func (m *Mont) ShiftPack(dst Nat, xs []Nat, s *ExpSchedule) Nat {
	sc := m.getScratch()
	defer m.putScratch(sc)
	z := resize(dst, m.k)
	acc := Nat(z[:copy(z, m.reduce(xs[len(xs)-1], sc))])
	for j := len(xs) - 2; j >= 0; j-- {
		acc = m.mulInto(z, m.expMont(acc, s, sc), m.reduce(xs[j], sc), sc)
	}
	return trim(acc)
}

// expMont runs the schedule's multiply chain for base < n and an exponent
// ≥ 1, returning base^e in Montgomery form as k limbs inside sc's slab —
// valid until the scratch next runs a chain. Where the host and the modulus
// allow, the chain itself runs on 52-bit digits (expMont52), and on a modulus
// of one or two limbs in registers (expMontRegs); what comes back is the same
// k limbs every way.
func (m *Mont) expMont(base Nat, s *ExpSchedule, sc *mulScratch) Nat {
	if f := m.ifma(); f != nil && !s.isOne {
		return m.expMont52(f, base, s, sc)
	}
	if m.k <= regMaxLimbs && useRegs {
		return m.expMontRegs(base, s, sc)
	}
	k := m.k
	sc.grow((s.maxIdx + 2) * k)
	acc := sc.buf(k, 0)
	if s.isOne {
		m.mulInto(acc, base, m.rr, sc)
		return acc
	}
	// Odd powers base^1, base^3, ..., in Montgomery form, up to the highest
	// index the schedule references; entry i sits in slab buffer i+1.
	tbl := func(i int) Nat { return sc.buf(k, i+1) }
	m.mulInto(tbl(0), base, m.rr, sc)
	if s.maxIdx > 0 {
		b2 := acc
		m.mulInto(b2, tbl(0), tbl(0), sc)
		for i := 1; i <= s.maxIdx; i++ {
			m.mulInto(tbl(i), tbl(i-1), b2, sc)
		}
	}
	// A schedule opens by squaring an accumulator that still holds 1 and then
	// multiplying in a table entry; start from that entry instead.
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
		m.mulInto(acc, acc, x, sc)
	}
	return acc
}

// ModExp returns base^e mod n for any modulus n ≥ 1. Odd moduli use
// Montgomery sliding-window exponentiation; even moduli fall back to
// square-and-multiply with explicit division (rare in this codebase —
// Paillier and RSA moduli are odd).
func ModExp(base, e, n Nat) Nat {
	n = trim(n)
	if len(n) == 0 {
		panic("mpint: ModExp modulus is zero")
	}
	if n.IsOne() {
		return nil
	}
	if !n.IsEven() {
		return NewMont(n).Exp(base, e)
	}
	result := One()
	b := Mod(base, n)
	for i := 0; i < e.BitLen(); i++ {
		if e.Bit(i) == 1 {
			result = Mod(Mul(result, b), n)
		}
		b = Mod(Mul(b, b), n)
	}
	return result
}

// ModMul returns a*b mod n.
func ModMul(a, b, n Nat) Nat { return Mod(Mul(a, b), n) }

// ModAdd returns (a+b) mod n.
func ModAdd(a, b, n Nat) Nat { return Mod(Add(a, b), n) }
