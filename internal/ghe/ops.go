package ghe

import (
	"fmt"
	"slices"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// vecOp is one vector op with its operands: everything an engine needs to
// run it, stated once. Engine launches it on a device, CPUEngine loops it on
// the host, CheckedEngine shards, verifies, retries and fails it over, and
// none of them knows which op it holds — a new op is one type in this file.
type vecOp interface {
	// name is the kernel name: what spans, errors and fault reports call it.
	name() string
	// kernel prices the op's launch on a device of the given warp size:
	// register width, word-ops per item (the Eq. 10 compute term, in the
	// modelled device's 32-bit words whatever the host multiplies with) and
	// divergent lanes. The engine fills in the name, the item count and the
	// body.
	kernel(warp int) gpu.Kernel
	// h2d and d2h are the bytes one launch moves up and down, at the operands'
	// true widths.
	h2d() int64
	d2h() int64
	// setup runs the op's own preliminary stage, if it has one, ahead of the
	// kernel — as a launch and an upload on dev, or directly on the host when
	// dev is nil — and returns the table entries it built.
	setup(dev *gpu.Device) (entries int, err error)
	// Lanes computes elements [lo, hi) into result()[lo:hi], a lane group
	// (gpu.LaneGroup) at most; Poison flips element i's low bit, the injected
	// silent corruption only verification can catch. The descriptor is the
	// launch's body (gpu.Body, gpu.Poisoner) as it stands.
	Lanes(lo, hi int)
	Poison(i int)
	// verify recomputes element i by arithmetic that shares nothing with
	// lane, so one fault cannot corrupt both the result and its check.
	verify(i int) mpint.Nat
	// result is the output vector, one element per item, written in place.
	result() []mpint.Nat
	// slice is the op over items [lo, hi): the same arithmetic on the same
	// elements at the same stream positions, writing result()[lo:hi].
	slice(lo, hi int) vecOp
}

// shardOf is op restricted to sh. The shard that covers the op is the op.
func shardOf(op vecOp, sh gpu.Shard) vecOp {
	if sh.Len() == len(op.result()) {
		return op
	}
	return op.slice(sh.Lo, sh.Hi)
}

// natBytes is the device-transfer size of a vector of k-limb values.
func natBytes(n, k int) int64 { return int64(n) * int64(k) * 4 }

// limbs32 is x's width in the modelled device's 32-bit words.
func limbs32(x mpint.Nat) int { return (x.BitLen() + 31) / 32 }

// maxBits is the widest element's bit length, at least 1.
func maxBits(xs []mpint.Nat) int {
	bits := 1
	for _, x := range xs {
		bits = max(bits, x.BitLen())
	}
	return bits
}

// outVec is the result vector every op embeds, with no set-up stage unless
// the op declares one. A poisoned item keeps its limb layout, so an undetected
// corruption stays a silent wrong value instead of crashing downstream
// consumers.
type outVec struct{ out []mpint.Nat }

func (v outVec) result() []mpint.Nat            { return v.out }
func (v outVec) setup(*gpu.Device) (int, error) { return 0, nil }
func (v outVec) sub(lo, hi int) outVec          { return outVec{v.out[lo:hi]} }

func (v outVec) Poison(i int) {
	if v.out[i].Bit(0) == 0 {
		v.out[i] = mpint.Add(v.out[i], mpint.One())
	} else {
		v.out[i] = mpint.Sub(v.out[i], mpint.One())
	}
}

// modVec is what the six ops with residues mod m for results share: the
// download width and a kernel as wide as the modulus.
type modVec struct {
	outVec
	m *mpint.Mont
}

func newModVec(n int, m *mpint.Mont) modVec { return modVec{outVec{make([]mpint.Nat, n)}, m} }

func (v modVec) sub(lo, hi int) modVec { return modVec{v.outVec.sub(lo, hi), v.m} }
func (v modVec) d2h() int64            { return natBytes(len(v.out), v.m.Limbs()) }
func (v modVec) kern(wordOps int64) gpu.Kernel {
	return gpu.Kernel{RegsPerThread: regsForLimbs(v.m.Limbs()), WordOps: wordOps}
}

// modExpOp is bases[i]^exp mod m. The exponent is shared by every element:
// its window schedule is recoded once on the host and replayed per lane,
// instead of rescanning the exponent bits in every thread — on the host, by a
// lane group's eight chains at once (mpint.Mont.ExpSchedVec). Verification
// rescans them.
type modExpOp struct {
	modVec
	bases []mpint.Nat
	exp   mpint.Nat
	sched *mpint.ExpSchedule
}

func (o *modExpOp) name() string { return "mod_exp_vec" }
func (o *modExpOp) kernel(int) gpu.Kernel {
	return o.kern(modExpWordOps(o.m.Limbs(), o.exp.BitLen()))
}
func (o *modExpOp) h2d() int64             { return natBytes(len(o.bases)+1, o.m.Limbs()) }
func (o *modExpOp) Lanes(lo, hi int)       { o.m.ExpSchedVec(o.out[lo:hi], o.bases[lo:hi], o.sched) }
func (o *modExpOp) verify(i int) mpint.Nat { return o.m.Exp(o.bases[i], o.exp) }
func (o *modExpOp) slice(lo, hi int) vecOp {
	return &modExpOp{o.sub(lo, hi), o.bases[lo:hi], o.exp, o.sched}
}

// modExpVarOp is bases[i]^exps[i] mod m, priced at the widest exponent of
// the launch. Variable exponents make warp lanes take different window paths.
type modExpVarOp struct {
	modVec
	bases, exps []mpint.Nat
}

func (o *modExpVarOp) name() string { return "mod_exp_var_vec" }
func (o *modExpVarOp) kernel(warp int) gpu.Kernel {
	k := o.kern(modExpWordOps(o.m.Limbs(), maxBits(o.exps)))
	k.DivergentLanes = warp / 2
	return k
}
func (o *modExpVarOp) h2d() int64 { return 2 * natBytes(len(o.bases), o.m.Limbs()) }
func (o *modExpVarOp) Lanes(lo, hi int) {
	for i := lo; i < hi; i++ {
		o.out[i] = o.m.Exp(o.bases[i], o.exps[i])
	}
}
func (o *modExpVarOp) verify(i int) mpint.Nat { return o.m.Exp(o.bases[i], o.exps[i]) }
func (o *modExpVarOp) slice(lo, hi int) vecOp {
	return &modExpVarOp{o.sub(lo, hi), o.bases[lo:hi], o.exps[lo:hi]}
}

// multiExpOp is Π bases[t.Index]^(±t.Weight) mod m over the terms t of
// sums[i]: the weighted sums of one ciphertext vector a vertical model's host
// computes every minibatch, as one kernel. The sums share their bases, so the
// set-up stage builds one table for the launch — every base a sum refers to
// (its inverse, for a negative term) into Montgomery form and, past unit
// weights, its odd powers — and every lane
// then walks its own weights over it with a single accumulator (interleaved
// sliding windows, internal/mpint/multiexp.go, DESIGN.md §17): a squaring a
// bit position and a table multiply a window, where an exponentiation a term
// and a product to fold each pair pay ≈1.2 multiplies a bit and two a fold,
// per term. The plan — which bases, which window width — is made when the op
// is stated, from the launch's shape alone; a shard plans and builds its own
// table for its own sums, and results are canonical residues either way, so
// neither the width nor a shard boundary can change a bit. A retry rebuilds
// the rows in place: a row is a function of its base alone. Verification takes
// every term through the plain exponentiation and folds with the plain
// product: no table, no shared schedule, a context of its own, so a corrupted
// table entry (which would skew every sum it feeds) cannot also corrupt the
// check.
type multiExpOp struct {
	modVec
	bases []mpint.Nat
	sums  [][]mpint.Term
	tbl   *mpint.MultiExpTable // planned over sums; setup builds its rows
}

func (o *multiExpOp) name() string { return "multi_exp_vec" }

// kernel prices a lane at the widest sum of the launch, as every variable-
// length kernel is priced at its widest element.
func (o *multiExpOp) kernel(warp int) gpu.Kernel {
	var widest int64
	for _, sum := range o.sums {
		widest = max(widest, o.tbl.LaneMuls(sum))
	}
	k := o.kern(widest * montMulWordOps(o.m.Limbs()))
	// Different weights put different windows at each bit position per lane.
	k.DivergentLanes = warp / 2
	return k
}

// setup builds the table as its own launch, one item a referenced base, so
// its cost lands on the simulated clock (and in the trace as a
// multi_exp_table span) once for the launch however many sums share it. The
// table is built on the device from the bases h2d uploads; nothing more is
// shipped. A row is priced at the widest: its multiplies, and a Lehmer walk
// when any row is built from an inverse. A base a negative term refers to
// with no inverse fails the op with mpint.ErrNotInvertible before a lane
// runs.
func (o *multiExpOp) setup(dev *gpu.Device) (int, error) {
	rows := o.tbl.Rows()
	if dev == nil {
		for r := 0; r < rows; r++ {
			o.tbl.BuildRow(r)
		}
	} else {
		row := o.tbl.RowMuls() * montMulWordOps(o.m.Limbs())
		if o.tbl.Inversions() > 0 {
			row += modInverseWordOps(o.m.Limbs())
		}
		kern := o.kern(row)
		kern.Name, kern.Items, kern.Body = "multi_exp_table", rows, gpu.LaneFunc(o.tbl.BuildRow)
		if _, err := dev.Launch(kern); err != nil {
			return 0, fmt.Errorf("table build: %w", err)
		}
	}
	if err := o.tbl.Err(); err != nil {
		return 0, err
	}
	return o.tbl.Entries(), nil
}

// h2d is every referenced base once and the sparse weights: a 4-byte index
// and an 8-byte weight a non-zero term.
func (o *multiExpOp) h2d() int64 {
	return natBytes(o.tbl.Rows(), o.m.Limbs()) + 12*int64(o.tbl.Terms())
}
func (o *multiExpOp) Lanes(lo, hi int) {
	for i := lo; i < hi; i++ {
		o.out[i] = o.tbl.Eval(o.out[i], o.sums[i])
	}
}
func (o *multiExpOp) verify(i int) mpint.Nat {
	n, prod := o.m.N(), mpint.One()
	for _, t := range o.sums[i] {
		base := o.bases[t.Index]
		if t.Neg && t.Weight != 0 {
			inv, ok := mpint.ModInverse(base, n)
			if !ok { // set-up rejected the op before any lane ran
				return mpint.Zero()
			}
			base = inv
		}
		prod = mpint.ModMul(prod, mpint.ModExp(base, mpint.FromUint64(t.Weight), n), n)
	}
	return prod
}

// slice plans the shard's own table; the indices were checked when the op was
// stated.
func (o *multiExpOp) slice(lo, hi int) vecOp {
	sums := o.sums[lo:hi]
	tbl, err := o.m.NewMultiExpTable(o.bases, sums)
	if err != nil {
		panic(err)
	}
	return &multiExpOp{o.sub(lo, hi), o.bases, sums, tbl}
}

// modMulOp is a[i]·b[i] mod m in two Montgomery multiplies, (a·R)·b·R⁻¹:
// only one operand needs to be in Montgomery form for the product to come
// out of it. The charge prices the modelled device kernel — two
// to-Montgomery conversions plus the multiply, as the paper's pipeline runs
// it — and stays at three multiplies whatever the host does. Verification
// takes the plain (non-Montgomery) path, so a systematic kernel error cannot
// also corrupt the check.
type modMulOp struct {
	modVec
	a, b []mpint.Nat
}

func (o *modMulOp) name() string          { return "mod_mul_vec" }
func (o *modMulOp) kernel(int) gpu.Kernel { return o.kern(3 * montMulWordOps(o.m.Limbs())) }
func (o *modMulOp) h2d() int64            { return 2 * natBytes(len(o.a), o.m.Limbs()) }
func (o *modMulOp) Lanes(lo, hi int) {
	for i := lo; i < hi; i++ {
		o.out[i] = o.m.ModMulInto(o.out[i], o.a[i], o.b[i])
	}
}
func (o *modMulOp) verify(i int) mpint.Nat { return mpint.ModMul(o.a[i], o.b[i], o.m.N()) }
func (o *modMulOp) slice(lo, hi int) vecOp {
	return &modMulOp{o.sub(lo, hi), o.a[lo:hi], o.b[lo:hi]}
}

// encryptOp is the Paillier encryption E(ms[i]) = gᵐ·rⁿ mod n² under g = n+1,
// for items [pos, pos+n) of the (seed, n) nonce stream, as one kernel: the lane
// draws its nonce, raises it to n and multiplies gᵐ = 1 + m·n in, and the
// ciphertext is the only thing it hands back — r, rⁿ and gᵐ never leave the
// thread (on the host: never leave pooled scratch). Each lane's generator is
// keyed by its global stream position, one per thread as the paper assigns
// them, so a shard encrypts under the nonces the whole batch would have drawn
// at those positions whichever device serves it; the draw is RandCoprime's —
// uniform in [1, n) by rejection, checked coprime with n by a gcd.
//
// Who encrypts decides the arithmetic, not the result. With the factorisation
// (key.CRT), which only the key's holder has, the whole ciphertext goes
// through p² and q² and one Garner step (mpint.CRT.EncryptDrawVec, a lane
// group's at once): four half-width exponentiations, gᵐ
// as one half-width product a prime folded into the step that leaves
// Montgomery form, nothing ever as wide as n². Without
// it the lane is the n² window on the schedule of n the key compiled once,
// and one multiply by gᵐ on the way out of Montgomery form
// (mpint.Mont.EncryptNDrawVec, a lane group's eight windows as one walk). Both are the canonical residue, written into the
// limbs the result vector hands in.
//
// Verification takes the textbook route: the nonce redrawn from scratch on
// the heap, rⁿ by a plain exponentiation on a context of its own, 1 + m·n and
// the product by plain multiplies and a division — no factorisation, no
// schedule, no scratch and no Montgomery constant shared with the lane, so a
// fault in any leg of it (a wrong residue mod p² recombines into a valid but
// wrong element of Z*ₙ²) cannot also corrupt the check.
//
// A lane group's scratch is its own for the length of the call: it is taken
// from the key's pool when the group starts and handed back when it returns,
// and the op holds none; lanes read nothing but the op's operands.
type encryptOp struct {
	modVec // m is key.N2, the width of the ciphertexts
	ms     []mpint.Nat
	key    EncryptKey
	seed   uint64
	pos    int
}

// newEncryptOp states the op over dst, one result a plaintext, rejecting a
// plaintext that is not below n (ErrPlaintext) before anything is uploaded.
func newEncryptOp(dst, ms []mpint.Nat, key EncryptKey, seed uint64) (encryptOp, error) {
	for i, pt := range ms {
		if mpint.Cmp(pt, key.N) >= 0 {
			return encryptOp{}, fmt.Errorf("%w at index %d", ErrPlaintext, i)
		}
	}
	return encryptOp{modVec: modVec{outVec{dst}, key.N2}, ms: ms, key: key, seed: seed}, nil
}

func (o *encryptOp) name() string { return "encrypt_vec" }

// kernel is as wide as the lane's widest stage: p² or q² for the holder, n²
// for anybody else.
func (o *encryptOp) kernel(int) gpu.Kernel {
	n := o.key.N
	if o.key.CRT == nil {
		return o.kern(encryptWordOps(limbs32(n), o.m.Limbs(), n.BitLen()))
	}
	st := o.key.CRT.Stages()
	return gpu.Kernel{
		RegsPerThread: regsForLimbs(max(st[1].Limbs, st[3].Limbs)),
		WordOps:       encryptCRTWordOps(limbs32(n), st),
	}
}

// h2d is the plaintexts at the width of n and the key's constants once: n
// itself (exponent and factor of gᵐ) for the window; the two exponent pairs,
// n mod p² and mod q², and the Garner constant for the factorisation.
func (o *encryptOp) h2d() int64 {
	kn := limbs32(o.key.N)
	consts := kn
	if o.key.CRT != nil {
		st := o.key.CRT.Stages()
		consts = 2*st[0].Limbs + 2*st[2].Limbs + 2*st[1].Limbs + st[3].Limbs
	}
	return natBytes(len(o.ms), kn) + natBytes(1, consts)
}

func (o *encryptOp) Lanes(lo, hi int) {
	var gens [gpu.LaneGroup]mpint.RNG // on the stack, as one lane's was
	var rngs [gpu.LaneGroup]*mpint.RNG
	for i := lo; i < hi; i++ {
		gens[i-lo] = *nonceRNG(o.seed, o.pos+i)
		rngs[i-lo] = &gens[i-lo]
	}
	o.group(o.out[lo:hi], o.ms[lo:hi], rngs[:hi-lo])
}

// group encrypts one lane group under the op's key: ms[i] into out[i] on the
// nonce rngs[i] draws.
func (o *encryptOp) group(out, ms []mpint.Nat, rngs []*mpint.RNG) {
	if o.key.CRT != nil {
		o.key.CRT.EncryptDrawVec(out, ms, rngs)
		return
	}
	o.m.EncryptNDrawVec(out, ms, o.key.N, o.key.Sched, rngs)
}

// encryptJob is the lanes of a batch's deferred encryptions (gpu.Job) laid
// end to end — one key, each part on its own nonce stream — so lane groups
// fill across launches: a wave of 32 four-ciphertext uploads walks 16 full
// groups where 32 launches walked 64 two-lane ones. Lane i is item
// i − (ends[p] − len) of part p, at its own stream position and written into
// that part's result, so every value is the one the part's own lanes compute.
type encryptJob struct {
	parts []*encryptOp
	ends  []int // ends[p]: the items of parts[:p+1]
}

func (b *encryptJob) Lanes(lo, hi int) {
	var gens [gpu.LaneGroup]mpint.RNG
	var rngs [gpu.LaneGroup]*mpint.RNG
	var out, ms [gpu.LaneGroup]mpint.Nat
	var of [gpu.LaneGroup]*encryptOp // lane k is item at[k] of part of[k]
	var at [gpu.LaneGroup]int
	p, _ := slices.BinarySearch(b.ends, lo+1)
	for k := range hi - lo {
		for b.ends[p] <= lo+k {
			p++
		}
		o := b.parts[p]
		of[k], at[k] = o, lo+k-b.ends[p]+len(o.out)
		gens[k] = *nonceRNG(o.seed, o.pos+at[k])
		rngs[k], out[k], ms[k] = &gens[k], o.out[at[k]], o.ms[at[k]]
	}
	of[0].group(out[:hi-lo], ms[:hi-lo], rngs[:hi-lo])
	for k := range hi - lo {
		of[k].out[at[k]] = out[k]
	}
}

func (o *encryptOp) verify(i int) mpint.Nat {
	n, n2 := o.key.N, o.m.N()
	rn := mpint.ModExp(RandCoprimeAt(o.seed, o.pos+i, n), n, n2)
	return mpint.ModMul(mpint.AddWord(mpint.Mul(o.ms[i], n), 1), rn, n2)
}

func (o *encryptOp) slice(lo, hi int) vecOp {
	return &encryptOp{o.sub(lo, hi), o.ms[lo:hi], o.key, o.seed, o.pos + lo}
}

// decryptOp is the Paillier decryption of cs[i] under g = n+1, as one kernel:
// the lane raises the ciphertext to p−1 mod p² and to q−1 mod q², takes L of
// both, multiplies the key's constants in and recombines over (p, q), all on
// the key's pooled scratch (mpint.CRT.Decrypt, the routine PrivateKey.Decrypt
// runs) — the plaintext is the only thing it hands back, so nothing half-width
// crosses PCIe and nothing is left for the host to finish. The ciphertexts go
// up at their own width, n²; the plaintexts come down at n's.
//
// Verification is the textbook decryption, L(c^λ mod n²)·μ mod n by a plain
// exponentiation on a context of its own, a division and a plain product: no
// factorisation, no compiled schedule and no scratch shared with the lane, so a
// fault in either half (a wrong residue mod p recombines into a valid but wrong
// plaintext below n) cannot also corrupt the check. A lane holds its scratch
// for the length of its call and reads nothing but its operand, as an
// encryption's does.
type decryptOp struct {
	outVec
	cs  []mpint.Nat
	key DecryptKey
}

func (o *decryptOp) name() string { return "decrypt_crt_vec" }

// kernel is as wide as the wider of p² and q².
func (o *decryptOp) kernel(int) gpu.Kernel {
	st := o.key.CRT.Stages()
	return gpu.Kernel{RegsPerThread: regsForLimbs(max(st[1].Limbs, st[3].Limbs)), WordOps: decryptCRTWordOps(limbs32(o.key.CRT.N()), st)}
}

// h2d is the ciphertexts at the width of n² and the key's constants once: the
// exponent and the h of each prime, and the Garner constant.
func (o *decryptOp) h2d() int64 {
	st := o.key.CRT.Stages()
	return natBytes(len(o.cs), 2*limbs32(o.key.CRT.N())) + natBytes(1, 3*st[0].Limbs+2*st[2].Limbs)
}
func (o *decryptOp) d2h() int64 { return natBytes(len(o.out), limbs32(o.key.CRT.N())) }
func (o *decryptOp) Lanes(lo, hi int) {
	o.key.CRT.DecryptVec(o.out[lo:hi], o.cs[lo:hi], o.key.HP, o.key.HQ)
}
func (o *decryptOp) verify(i int) mpint.Nat {
	n := o.key.CRT.N()
	x := mpint.ModExp(o.cs[i], o.key.Lambda, mpint.Mul(n, n))
	if x.IsZero() { // a multiple of n: no ciphertext, and 0 by the lane's floor too
		return nil
	}
	return mpint.ModMul(mpint.Div(mpint.SubWord(x, 1), n), o.key.Mu, n)
}
func (o *decryptOp) slice(lo, hi int) vecOp {
	return &decryptOp{o.sub(lo, hi), o.cs[lo:hi], o.key}
}

// shiftPackOp is Π cs[i·slots+j]^(shiftʲ) mod m over the j the pack has a value
// for, shift = 2^slotBits: pack i of the result holds the plaintexts of its
// ciphertexts in slotBits-wide slots, cs[i·slots] lowest — the return path of
// the vertical protocols (fl.Context.OpenBroadcastSums) — as one kernel. A lane runs its
// pack's whole Horner chain, acc ← acc^shift·next from the top slot down, on
// pooled scratch (mpint.Mont.ShiftPack): the shift's schedule is compiled once
// for the launch, and what a launch a slot (a mod_exp_var_vec and a
// mod_mul_vec, both vectors down and up again in between) moved across PCIe
// 2·(slots−1) times stays in the thread. Only the last pack can be short.
//
// Verification raises every ciphertext of the pack to its own power of the
// shift by the plain exponentiation and folds with the plain product: no
// chain, no schedule, a context of its own.
type shiftPackOp struct {
	modVec
	cs          []mpint.Nat
	slots, bits int                // values a pack; width of a slot
	sched       *mpint.ExpSchedule // 2^bits compiled: the shift every Horner step raises to
}

func (o *shiftPackOp) name() string { return "shift_pack_vec" }

// pack is the ciphertexts of pack i.
func (o *shiftPackOp) pack(i int) []mpint.Nat {
	return o.cs[i*o.slots : min((i+1)*o.slots, len(o.cs))]
}

// kernel prices a lane at the fullest pack of the launch, its first: a Horner
// step a value past the first, each the window over the shift — its one set
// bit the top one — and the multiply that folds the next value in and leaves
// Montgomery form. Every lane walks the one schedule, so nothing diverges: a
// short last pack leaves its lane idle while the others finish.
func (o *shiftPackOp) kernel(int) gpu.Kernel {
	step := modExpWordOps(o.m.Limbs(), o.bits+1) + montMulWordOps(o.m.Limbs())
	return o.kern(int64(len(o.pack(0))-1) * step)
}
func (o *shiftPackOp) h2d() int64 { return natBytes(len(o.cs)+1, o.m.Limbs()) }
func (o *shiftPackOp) Lanes(lo, hi int) {
	for i := lo; i < hi; i++ {
		o.out[i] = o.m.ShiftPack(o.out[i], o.pack(i), o.sched)
	}
}
func (o *shiftPackOp) verify(i int) mpint.Nat {
	n, prod := o.m.N(), mpint.One()
	for j, c := range o.pack(i) {
		prod = mpint.ModMul(prod, mpint.ModExp(c, mpint.Lsh(mpint.One(), uint(j*o.bits)), n), n)
	}
	return prod
}
func (o *shiftPackOp) slice(lo, hi int) vecOp {
	return &shiftPackOp{o.sub(lo, hi), o.cs[lo*o.slots : min(hi*o.slots, len(o.cs))], o.slots, o.bits, o.sched}
}

// elemKind is one of Table I's five arithmetic ops: its kernel name, the
// rejection an operand pair can earn before anything is launched, and the mpint
// call a lane makes. shared marks a second operand that is one value for the
// whole vector (mod_vec's modulus) instead of one an item.
type elemKind struct {
	name   string
	shared bool
	check  func(a, b mpint.Nat) error
	fn     func(a, b mpint.Nat) mpint.Nat
}

var (
	elemAdd = &elemKind{name: "add_vec", fn: mpint.Add}
	elemSub = &elemKind{name: "sub_vec", fn: mpint.Sub, check: func(a, b mpint.Nat) error {
		if mpint.Cmp(a, b) < 0 {
			return ErrUnderflow
		}
		return nil
	}}
	elemMul = &elemKind{name: "mul_vec", fn: mpint.Mul}
	elemDiv = &elemKind{name: "div_vec", fn: mpint.Div, check: func(_, b mpint.Nat) error {
		if b.IsZero() {
			return ErrZeroDivisor
		}
		return nil
	}}
	// The one modulus is checked by ModVec, whether or not there are items.
	elemMod = &elemKind{name: "mod_vec", fn: mpint.Mod, shared: true}
)

// elemOp is a[i] ∘ b[i] over the naturals for one elemKind — Table I's add,
// sub, mul, div and mod. A lane is a single mpint call and a linear pass over
// its operands, so the kernel is as wide as the widest operand of the op and a
// shard keeps that width: every item moves at one size whichever device serves
// it. There is no schedule, table or context for a check to share with the
// lane; verification recomputes the element on the host, which is what catches
// a result corrupted after the device computed it.
type elemOp struct {
	outVec
	kind  *elemKind
	a, b  []mpint.Nat // b is one value when kind.shared
	limbs int
}

// newElemOp states the op, rejecting a length mismatch, an underflow or a zero
// divisor typed before anything is uploaded.
func newElemOp(kind *elemKind, a, b []mpint.Nat) (*elemOp, error) {
	if !kind.shared && len(a) != len(b) {
		return nil, fmt.Errorf("%w %d vs %d", ErrLength, len(a), len(b))
	}
	o := &elemOp{outVec{make([]mpint.Nat, len(a))}, kind, a, b, 1}
	for i, x := range a {
		y := o.second(i)
		if kind.check != nil {
			if err := kind.check(x, y); err != nil {
				return nil, fmt.Errorf("%w at index %d", err, i)
			}
		}
		o.limbs = max(o.limbs, limbs32(x), limbs32(y))
	}
	return o, nil
}

func (o *elemOp) second(i int) mpint.Nat {
	if o.kind.shared {
		return o.b[0]
	}
	return o.b[i]
}

func (o *elemOp) name() string { return o.kind.name }
func (o *elemOp) kernel(int) gpu.Kernel {
	return gpu.Kernel{RegsPerThread: regsForLimbs(o.limbs), WordOps: int64(o.limbs + 1)}
}
func (o *elemOp) h2d() int64 { return natBytes(len(o.a)+len(o.b), o.limbs) }
func (o *elemOp) d2h() int64 { return natBytes(len(o.out), o.limbs) }
func (o *elemOp) Lanes(lo, hi int) {
	for i := lo; i < hi; i++ {
		o.out[i] = o.kind.fn(o.a[i], o.second(i))
	}
}
func (o *elemOp) verify(i int) mpint.Nat { return o.kind.fn(o.a[i], o.second(i)) }
func (o *elemOp) slice(lo, hi int) vecOp {
	b := o.b
	if !o.kind.shared {
		b = b[lo:hi]
	}
	return &elemOp{o.sub(lo, hi), o.kind, o.a[lo:hi], b, o.limbs}
}

// millerRabinOp is one Miller–Rabin round a lane on (ns[i], as[i]) — ns[0] for
// every lane when the launch tests one candidate — the key-generation search of
// §IV-A3, one test a thread: result i is 1 when the candidate survives the round
// to base as[i] and 0 when the base witnesses it composite. The walk that asks
// for the rounds (mpint.PrimeSearch) launches two shapes: round 0 of a window of
// survivors, where each lane builds its own candidate's Montgomery context and
// schedule of d (n − 1 = d·2^s), and rounds 1–19 of the one survivor that
// passed, where a set-up stage builds them once for every lane. Verification
// recomputes the round by square-and-multiply with plain products: no
// Montgomery form, no schedule, nothing shared with the lane.
type millerRabinOp struct {
	outVec
	ns, as []mpint.Nat
	limbs  int              // the widest candidate's, in the device's words
	test   *mpint.PrimeTest // ns[0] made ready, when the lanes share it; set up per shard
}

// newMillerRabinOp states the op over dst, rejecting a length mismatch and a
// candidate or a base out of range (ErrWitness) before anything is uploaded.
func newMillerRabinOp(dst, ns, as []mpint.Nat) (millerRabinOp, error) {
	if len(ns) != 1 && len(ns) != len(as) {
		return millerRabinOp{}, fmt.Errorf("%w: %d candidates for %d bases", ErrLength, len(ns), len(as))
	}
	o := millerRabinOp{outVec: outVec{dst}, ns: ns, as: as, limbs: 1}
	five := mpint.FromUint64(5)
	var top mpint.Nat // the largest base the candidate takes: n − 2
	for i, a := range as {
		if i < len(ns) { // a candidate not checked yet
			n := ns[i]
			if n.IsEven() || mpint.Cmp(n, five) < 0 {
				return millerRabinOp{}, fmt.Errorf("%w at index %d", ErrWitness, i)
			}
			top = mpint.SubWord(n, 2)
			o.limbs = max(o.limbs, limbs32(n))
		}
		if a.BitLen() < 2 || mpint.Cmp(a, top) > 0 {
			return millerRabinOp{}, fmt.Errorf("%w at index %d", ErrWitness, i)
		}
	}
	return o, nil
}

func (o *millerRabinOp) candidate(i int) mpint.Nat { return o.ns[min(i, len(o.ns)-1)] }
func (o *millerRabinOp) shared() bool              { return len(o.ns) == 1 }

func (o *millerRabinOp) name() string { return "miller_rabin_vec" }

// kernel prices a lane at a round over the widest candidate — the window over
// d and the squarings after it, about a squaring a bit of n — plus, where the
// lanes test candidates of their own, building the candidate's context: those
// lanes walk different schedules, the divergence a variable exponent declares.
func (o *millerRabinOp) kernel(warp int) gpu.Kernel {
	k := gpu.Kernel{RegsPerThread: regsForLimbs(o.limbs), WordOps: modExpWordOps(o.limbs, 32*o.limbs)}
	if !o.shared() {
		k.WordOps += montSetupWordOps(o.limbs)
		k.DivergentLanes = warp / 2
	}
	return k
}

// setup builds the shared candidate's test as its own one-item launch, so the
// context and the schedule land on the simulated clock once for the launch. A
// retry reuses a test its attempt's stage built: it is read-only.
func (o *millerRabinOp) setup(dev *gpu.Device) (int, error) {
	if !o.shared() || o.test != nil {
		return 0, nil
	}
	build := func(int) { o.test = mpint.NewPrimeTest(o.ns[0]) }
	if dev == nil {
		build(0)
		return 0, nil
	}
	kern := gpu.Kernel{Name: "miller_rabin_setup", Items: 1, RegsPerThread: regsForLimbs(o.limbs),
		WordOps: montSetupWordOps(o.limbs), Body: gpu.LaneFunc(build)}
	if _, err := dev.Launch(kern); err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	return 0, nil
}

// h2d is the bases and the candidates, the shared one once.
func (o *millerRabinOp) h2d() int64 { return natBytes(len(o.as)+len(o.ns), o.limbs) }
func (o *millerRabinOp) d2h() int64 { return natBytes(len(o.out), 1) }

func (o *millerRabinOp) Lanes(lo, hi int) {
	var ts [gpu.LaneGroup]*mpint.PrimeTest
	var passed [gpu.LaneGroup]bool
	for i := lo; i < hi; i++ {
		if ts[i-lo] = o.test; o.test == nil {
			ts[i-lo] = mpint.NewPrimeTest(o.ns[i])
		}
	}
	mpint.Rounds(ts[:hi-lo], o.as[lo:hi], passed[:hi-lo])
	for i := lo; i < hi; i++ {
		o.out[i] = verdict(passed[i-lo])
	}
}

func (o *millerRabinOp) verify(i int) mpint.Nat {
	n, a := o.candidate(i), o.as[i]
	nm1 := mpint.SubWord(n, 1)
	s := nm1.TrailingZeroBits()
	d := mpint.Rsh(nm1, s)
	x := mpint.One()
	for b := d.BitLen() - 1; b >= 0; b-- {
		x = mpint.ModMul(x, x, n)
		if d.Bit(b) == 1 {
			x = mpint.ModMul(x, a, n)
		}
	}
	if x.IsOne() || mpint.Cmp(x, nm1) == 0 {
		return verdict(true)
	}
	for j := uint(1); j < s && !x.IsOne(); j++ {
		if x = mpint.ModMul(x, x, n); mpint.Cmp(x, nm1) == 0 {
			return verdict(true)
		}
	}
	return verdict(false)
}

func (o *millerRabinOp) slice(lo, hi int) vecOp {
	ns := o.ns
	if !o.shared() {
		ns = ns[lo:hi]
	}
	return &millerRabinOp{outVec: o.sub(lo, hi), ns: ns, as: o.as[lo:hi], limbs: o.limbs}
}

// verdict is a round's result element: 1 when the candidate survived it.
func verdict(passed bool) mpint.Nat {
	if passed {
		return mpint.One()
	}
	return mpint.Zero()
}
