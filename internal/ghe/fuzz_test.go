package ghe

import (
	"bytes"
	"errors"
	"math/big"
	"strings"
	"testing"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// fuzzOperands is the seed corpus mpint's differential targets sit on: widths
// one under, at and one over the limb boundaries of both the host (64-bit)
// and the modelled (32-bit) word, each as all-ones limbs, as the top bit
// alone, and as an odd mid-range pattern.
func fuzzOperands() [][]byte {
	var out [][]byte
	for _, bits := range []int{31, 32, 33, 63, 64, 65, 95, 96, 97, 127, 128, 129, 160, 224} {
		ones := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(bits)), big.NewInt(1))
		top := new(big.Int).Lsh(big.NewInt(1), uint(bits-1))
		mid := new(big.Int).Or(top, new(big.Int).Rsh(ones, uint(bits/2)))
		out = append(out, ones.Bytes(), top.Bytes(), mid.Or(mid, big.NewInt(1)).Bytes())
	}
	return out
}

func toBig(x mpint.Nat) *big.Int { return new(big.Int).SetBytes(x.Bytes()) }

// decKey is the decryption key of n = p·q under g = n+1 as paillier builds it:
// the reduced-exponent constants L_s((n+1)^(s−1) mod s²)⁻¹ mod s in Montgomery
// form, and the textbook trapdoor (λ, μ). It is not ok when the pair makes no
// key: a prime dividing the other's predecessor, so that gcd(n, φ(n)) ≠ 1.
func decKey(crt *mpint.CRT, p, q mpint.Nat) (DecryptKey, bool) {
	n, pm1, qm1 := crt.N(), mpint.SubWord(p, 1), mpint.SubWord(q, 1)
	h := func(s, sm1 mpint.Nat) (mpint.Nat, bool) {
		x := mpint.ModExp(mpint.AddWord(n, 1), sm1, mpint.Mul(s, s))
		return mpint.ModInverse(mpint.Div(mpint.SubWord(x, 1), s), s)
	}
	hp, okP := h(p, pm1)
	hq, okQ := h(q, qm1)
	lambda := mpint.LCM(pm1, qm1)
	mu, okMu := mpint.ModInverse(mpint.Mod(lambda, n), n)
	if !okP || !okQ || !okMu {
		return DecryptKey{}, false
	}
	return DecryptKey{CRT: crt, HP: crt.P().ToMont(hp), HQ: crt.Q().ToMont(hq), Lambda: lambda, Mu: mu}, true
}

// fuzzVecCase is one op over fuzzed operands: a constructor (every run needs
// its own output vector) and what math/big says element i is.
type fuzzVecCase struct {
	mk   func() vecOp
	want func(i int) *big.Int
}

// FuzzVecOps is the differential target of the whole GPU-HE layer. For a
// fuzzed odd modulus of 1–40 of the device's 32-bit limbs, fuzzed operands
// and exponents, and a fuzzed fault schedule, every op's descriptor is held to
// three agreements: each lane equals the op's own verify path equals
// math/big, and a poisoned lane fails full verification; the executor over
// one healthy device, unverified, returns the vector the host loop (runOnHost)
// does; and the executor over 1, 2 and 3 devices, one of them killed at its
// first, second or third launch, returns that vector too — a shard is bit-exact with the unsharded op, which
// for encrypt_vec (a case a handle kind) is also what holds any split of a
// batch to the nonces the whole batch draws. decrypt_crt_vec opens the holder's
// encryptions of the fuzzed plaintexts, the ciphertext 1 among them, against
// math/big's L(c^λ mod n²)·μ mod n — which is the plaintext — and
// shift_pack_vec packs the fuzzed residues 1 to 5 to a pack under a 1- to
// 70-bit shift, the last pack short on most seeds, against math/big's
// Π cⱼ^(2^(b·j)); multi_exp_vec weighs the fuzzed residues by either sign
// against math/big's Exp over its ModInverse; miller_rabin_vec runs a round on the fuzzed modulus, alone
// and beside candidates of each lane's own, to the fuzzed base, 2 and n − 2
// among others, against math/big's Exp and squaring chain. Operand errors
// (length mismatch, underflow, zero divisor, a plaintext at or above n, a
// Miller–Rabin base out of range) reject typed with nothing launched or
// uploaded.
func FuzzVecOps(f *testing.F) {
	ops := fuzzOperands()
	for i, nb := range ops {
		f.Add(nb, ops[(i+2)%len(ops)], ops[(i+7)%len(ops)], uint64(i)*0x9E3779B97F4A7C15)
	}
	f.Add([]byte{0x10, 0x01}, []byte{0xFF}, []byte{0}, uint64(1))                                                     // exponent 0
	f.Add([]byte{3}, []byte{2}, []byte{1}, uint64(2))                                                                 // the smallest modulus
	f.Add(bytes.Repeat([]byte{0xFF}, 160), bytes.Repeat([]byte{0xFE}, 160), bytes.Repeat([]byte{0xA5}, 9), uint64(3)) // 40 limbs
	f.Add([]byte{1}, []byte{5}, []byte{3}, uint64(4))                                                                 // the modulus 1: no context, so no op to state
	f.Fuzz(func(t *testing.T, nb, ab, eb []byte, seed uint64) {
		if len(nb) > 160 {
			nb = nb[:160]
		}
		if len(eb) > 32 {
			eb = eb[:32]
		}
		n := mpint.FromBytes(nb)
		if len(n) == 0 {
			return
		}
		n[0] |= 1
		if n.IsOne() {
			// No Montgomery context exists mod 1, so no op can be stated over it:
			// core.Platform rejects the modulus typed (core.TestModulusOne).
			return
		}
		m := mpint.NewMont(n)
		r := mpint.NewRNG(seed)
		items := 3 + int(seed%5)
		a, b, exps := make([]mpint.Nat, items), make([]mpint.Nat, items), make([]mpint.Nat, items)
		a[0], exps[0] = mpint.Mod(mpint.FromBytes(ab), n), mpint.FromBytes(eb)
		b[0] = mpint.SubWord(n, 1)
		for i := 1; i < items; i++ {
			a[i], b[i] = r.RandBelow(n), r.RandBelow(n)
			exps[i] = r.RandBits(1 + r.Intn(exps[0].BitLen()+1))
		}
		exps[items-1] = mpint.Zero()
		// A key small enough to find primes for on every input, its two factors
		// of unequal length, and plaintexts below n = p·q for encrypt_vec: the
		// fuzzed operand, 0 and n−1 among them.
		p, q := r.RandPrime(12+int(seed>>8%52)), r.RandPrime(12+int(seed>>16%52))
		if mpint.Cmp(p, q) == 0 {
			return
		}
		crt, err := mpint.NewCRT(p, q)
		if err != nil {
			t.Fatalf("NewCRT(%s, %s): %v", p, q, err)
		}
		n2 := mpint.NewMont(mpint.Mul(crt.N(), crt.N()))
		xs := make([]mpint.Nat, items)
		for i := range xs {
			xs[i] = mpint.Mod(mpint.Add(a[i], mpint.FromUint64(uint64(i))), crt.N())
		}
		xs[1], xs[2] = mpint.Zero(), mpint.SubWord(crt.N(), 1)
		pos := int(seed >> 24 % 1000)
		// Weighted sums over a: indices drawn with repeats and in any order,
		// weights the low limb of a fuzzed exponent (the last is zero), either
		// sign over a base with an inverse mod n, one sum left empty.
		sums := make([][]mpint.Term, items)
		for j := range sums[1:] {
			for c := r.Intn(items + 3); c > 0; c-- {
				tm := mpint.Term{Index: r.Intn(items)}
				if _, ok := mpint.ModInverse(a[tm.Index], n); ok {
					tm.Neg = r.Intn(2) == 0
				}
				if e := exps[r.Intn(items)]; len(e) > 0 {
					tm.Weight = e[0]
				}
				sums[j+1] = append(sums[j+1], tm)
			}
		}

		// Table I's operands: no b[i] is zero, and over[i] = a[i]·b[i] + a[i] + b[i]
		// is at least both and as wide as the two together.
		over := make([]mpint.Nat, items)
		for i := range over {
			if b[i].IsZero() {
				b[i] = mpint.One()
			}
			over[i] = mpint.Add(mpint.Mul(a[i], b[i]), mpint.Add(a[i], b[i]))
		}
		elem := func(kind *elemKind, x, y []mpint.Nat) func() vecOp {
			return func() vecOp {
				op, err := newElemOp(kind, x, y)
				if err != nil {
					t.Fatal(err)
				}
				return op
			}
		}

		bn, bN := toBig(n), toBig(crt.N())
		bN2 := new(big.Int).Mul(bN, bN)
		// The batch under test is the tail of a longer one, so its lanes sit at
		// stream positions pos and up.
		batch := append(make([]mpint.Nat, pos), xs...)
		encrypt := func(holder bool) fuzzVecCase {
			return fuzzVecCase{
				func() vecOp {
					op, err := newEncryptOp(make([]mpint.Nat, len(batch)), batch, encKey(crt, n2, holder), seed)
					if err != nil {
						t.Fatal(err)
					}
					return op.slice(pos, pos+items)
				},
				func(i int) *big.Int {
					c := new(big.Int).Mul(toBig(xs[i]), bN)
					c.Mul(c.Add(c, big.NewInt(1)), new(big.Int).Exp(toBig(RandCoprimeAt(seed, pos+i, crt.N())), bN, bN2))
					return c.Mod(c, bN2)
				}}
		}
		// Packs of 1 to 5 residues under a 1- to 70-bit shift, the last pack up
		// to slots−1 short.
		slots, shiftBits := 1+int(seed>>12%5), 1+int(seed>>20%70)
		packed := make([]mpint.Nat, items*slots-int(seed>>4%uint64(slots)))
		for i := range packed {
			packed[i] = a[i%items]
			if i/items%2 == 1 {
				packed[i] = b[i%items]
			}
		}
		cases := map[string]fuzzVecCase{
			"shift_pack_vec": {
				func() vecOp {
					return &shiftPackOp{newModVec(items, m), packed, slots, shiftBits, mpint.CompileExpAuto(mpint.Lsh(mpint.One(), uint(shiftBits)))}
				},
				func(i int) *big.Int {
					prod, e := big.NewInt(1), big.NewInt(1)
					for _, c := range packed[i*slots : min((i+1)*slots, len(packed))] {
						prod.Mul(prod, new(big.Int).Exp(toBig(c), e, bn)).Mod(prod, bn)
						e.Lsh(e, uint(shiftBits))
					}
					return prod
				}},
			"mod_exp_vec": {
				func() vecOp { return &modExpOp{newModVec(items, m), a, exps[0], mpint.CompileExpAuto(exps[0])} },
				func(i int) *big.Int { return new(big.Int).Exp(toBig(a[i]), toBig(exps[0]), bn) }},
			"encrypt_vec holder": encrypt(true),
			"encrypt_vec public": encrypt(false),
			"mod_exp_var_vec": {
				func() vecOp { return &modExpVarOp{newModVec(items, m), a, exps} },
				func(i int) *big.Int { return new(big.Int).Exp(toBig(a[i]), toBig(exps[i]), bn) }},
			"multi_exp_vec": {
				func() vecOp {
					tbl, err := m.NewMultiExpTable(a, sums)
					if err != nil {
						t.Fatal(err)
					}
					return &multiExpOp{modVec: newModVec(items, m), bases: a, sums: sums, tbl: tbl}
				},
				func(i int) *big.Int {
					prod := big.NewInt(1)
					for _, tm := range sums[i] {
						base := toBig(a[tm.Index])
						if tm.Neg {
							base.ModInverse(base, bn)
						}
						prod.Mul(prod, new(big.Int).Exp(base, new(big.Int).SetUint64(tm.Weight), bn))
						prod.Mod(prod, bn)
					}
					return prod.Mod(prod, bn)
				}},
			"mod_mul_vec": {
				func() vecOp { return &modMulOp{newModVec(items, m), a, b} },
				func(i int) *big.Int { v := new(big.Int).Mul(toBig(a[i]), toBig(b[i])); return v.Mod(v, bn) }},
			"add_vec": {elem(elemAdd, a, exps), func(i int) *big.Int { return new(big.Int).Add(toBig(a[i]), toBig(exps[i])) }},
			"sub_vec": {elem(elemSub, over, a), func(i int) *big.Int { return new(big.Int).Sub(toBig(over[i]), toBig(a[i])) }},
			"mul_vec": {elem(elemMul, a, exps), func(i int) *big.Int { return new(big.Int).Mul(toBig(a[i]), toBig(exps[i])) }},
			"div_vec": {elem(elemDiv, over, b), func(i int) *big.Int { return new(big.Int).Quo(toBig(over[i]), toBig(b[i])) }},
			"mod_vec": {elem(elemMod, over, []mpint.Nat{n}), func(i int) *big.Int { return new(big.Int).Mod(toBig(over[i]), bn) }},
		}
		if mpint.Cmp(n, mpint.FromUint64(5)) >= 0 {
			// Miller–Rabin rounds on the fuzzed modulus as the candidate of every
			// lane, and on it beside odd candidates 2·a[i] + 5 one a lane; a lane's
			// base is the fuzzed operand's residue for lane 0, 2 for lane 1, n − 2
			// for lane 2 and a draw in [2, n−2] past them.
			own := make([]mpint.Nat, items)
			for i := range own {
				own[i] = mpint.AddWord(mpint.Lsh(a[i], 1), 5)
			}
			own[0] = n
			for name, cands := range map[string][]mpint.Nat{"miller_rabin_vec one candidate": {n}, "miller_rabin_vec": own} {
				bases := make([]mpint.Nat, items)
				for i := range bases {
					c := cands[min(i, len(cands)-1)]
					switch i {
					case 0:
						bases[i] = mpint.AddWord(mpint.Mod(mpint.FromBytes(ab), mpint.SubWord(c, 3)), 2)
					case 1:
						bases[i] = mpint.FromUint64(2)
					case 2:
						bases[i] = mpint.SubWord(c, 2)
					default:
						bases[i] = mpint.AddWord(r.RandBelow(mpint.SubWord(c, 3)), 2)
					}
				}
				cases[name] = fuzzVecCase{
					func() vecOp {
						op, err := newMillerRabinOp(make([]mpint.Nat, items), cands, bases)
						if err != nil {
							t.Fatal(err)
						}
						return &op
					},
					func(i int) *big.Int { return bigRound(toBig(cands[min(i, len(cands)-1)]), toBig(bases[i])) }}
			}
		}
		if key, ok := decKey(crt, p, q); ok {
			// The holder's encryptions of xs at stream positions 0 and up, and
			// the ciphertext 1: an encryption of zero under the nonce 1.
			cts := make([]mpint.Nat, items)
			for i := range cts {
				cts[i] = crt.Encrypt(xs[i], RandCoprimeAt(seed, i, crt.N()))
			}
			opened := append(xs[:items-1:items-1], mpint.Zero())
			cts[items-1] = mpint.One()
			lambda, mu := toBig(key.Lambda), toBig(key.Mu)
			cases["decrypt_crt_vec"] = fuzzVecCase{
				func() vecOp { return &decryptOp{outVec{make([]mpint.Nat, items)}, cts, key} },
				func(i int) *big.Int {
					l := new(big.Int).Exp(toBig(cts[i]), lambda, bN2)
					l.Mod(l.Mul(l.Quo(l.Sub(l, big.NewInt(1)), bN), mu), bN)
					if l.Cmp(toBig(opened[i])) != 0 {
						t.Fatalf("math/big opens E(%s) under n = %s to %s", opened[i], crt.N(), l)
					}
					return l
				}}
		}
		for name, c := range cases {
			ref := c.mk()
			if !strings.HasPrefix(name, ref.name()) {
				t.Fatalf("case %s built a %s", name, ref.name())
			}
			if err := runOnHost(ref); err != nil {
				t.Fatalf("%s on the host: %v", name, err)
			}
			for i, got := range ref.result() {
				if v := ref.verify(i); mpint.Cmp(got, v) != 0 {
					t.Fatalf("%s[%d] mod %s: lane %s, verify path %s", name, i, n, got, v)
				}
				if w := c.want(i); toBig(got).Cmp(w) != 0 {
					t.Fatalf("%s[%d] mod %s = %s, math/big says %s", name, i, n, got, w)
				}
			}
			// A poisoned lane never passes full verification.
			bad := int(seed >> 56 % uint64(items))
			ref.Poison(bad)
			if (&member{rng: mpint.NewRNG(seed)}).spotCheck(ref, 1) {
				t.Fatalf("%s[%d] mod %s: poisoned to %s and verified", name, bad, n, ref.result()[bad])
			}
			ref.Poison(bad)
			same := func(engine string, got []mpint.Nat, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s on %s: %v", name, engine, err)
				}
				for i, w := range ref.result() {
					if mpint.Cmp(got[i], w) != 0 {
						t.Fatalf("%s[%d] mod %s on %s = %s, the host loop says %s", name, i, n, engine, got[i], w)
					}
				}
			}
			one, err := testEngine(t).run(c.mk())
			same("the executor at D = 1", one, err)
			for _, d := range []int{1, 2, 3} {
				chk := checkedSet(t, d, CheckedConfig{VerifyFraction: 0.5, VerifySeed: seed})
				chk.Devices()[seed>>40%uint64(d)].SetFaultInjector(
					gpu.NewFaultInjector(gpu.FaultConfig{Seed: seed, KillAtLaunch: 1 + int64(seed>>48%3)}))
				// Two ops, so a kill at the second or third launch lands with
				// the fleet warm and, at D = 3, with peers to steal for it.
				for round := 0; round < 2; round++ {
					got, err := chk.run(c.mk())
					same("the executor", got, err)
				}
			}
		}

		eng := testEngine(t)
		short := a[:items-1]
		for name, c := range map[string]struct {
			err  error
			want error
		}{
			"AddVec":                 {second(eng.AddVec(a, short)), ErrLength},
			"SubVec":                 {second(eng.SubVec(a, over[:1])), ErrLength},
			"MulVec":                 {second(eng.MulVec(short, a)), ErrLength},
			"DivVec":                 {second(eng.DivVec(a, short)), ErrLength},
			"SubVec under":           {second(eng.SubVec(append(short[:items-1:items-1], mpint.Zero()), b)), ErrUnderflow},
			"DivVec by 0":            {second(eng.DivVec(a, append(b[:items-1:items-1], mpint.Zero()))), ErrZeroDivisor},
			"ModVec by 0":            {second(eng.ModVec(a, mpint.Zero())), ErrZeroDivisor},
			"EncryptVec ≥ n, holder": {second(eng.EncryptVec(append(xs[:items-1:items-1], crt.N()), encKey(crt, n2, true), seed)), ErrPlaintext},
			"EncryptVec ≥ n, public": {second(eng.EncryptVec(append(xs[:items-1:items-1], mpint.Add(crt.N(), a[0])), encKey(crt, n2, false), seed)), ErrPlaintext},
			"MillerRabinVec base n":  {second(eng.Frame(1).MillerRabinVec([]mpint.Nat{crt.N()}, []mpint.Nat{crt.N()})), ErrWitness},
		} {
			if !errors.Is(c.err, c.want) {
				t.Fatalf("%s: error %v, want %v", name, c.err, c.want)
			}
		}
		if st := eng.Devices()[0].Stats(); st.KernelLaunches != 0 || st.BytesHostToDev != 0 {
			t.Fatalf("operand errors reached the device: %d launches, %d bytes up", st.KernelLaunches, st.BytesHostToDev)
		}
	})
}

func second(_ []mpint.Nat, err error) error { return err }

// bigRound is math/big's Miller–Rabin round on n to base a: 1 when n survives
// it, 0 when a witnesses n composite.
func bigRound(n, a *big.Int) *big.Int {
	one := big.NewInt(1)
	nm1 := new(big.Int).Sub(n, one)
	s := nm1.TrailingZeroBits()
	x := new(big.Int).Exp(a, new(big.Int).Rsh(nm1, s), n)
	for i := uint(0); ; i++ {
		switch {
		case x.Cmp(nm1) == 0 || (i == 0 && x.Cmp(one) == 0):
			return one
		case i+1 >= s || x.Cmp(one) == 0:
			return new(big.Int)
		}
		x.Mul(x, x).Mod(x, n)
	}
}
