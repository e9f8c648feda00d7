package core

import (
	"errors"
	"math"
	"math/big"
	"strings"
	"testing"

	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
	"flbooster/internal/rsa"
)

func testPlatform(t testing.TB) *Platform {
	t.Helper()
	p, err := New(gpu.SmallTestDevice(), 7)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// platformOn is a seed-7 platform over a stack of the caller's shape.
func platformOn(t testing.TB, devices int, inject gpu.FaultConfig, check ghe.CheckedConfig) *Platform {
	t.Helper()
	st, err := NewStack(gpu.SmallTestDevice(), true, devices, inject, check)
	if err != nil {
		t.Fatal(err)
	}
	return &Platform{st: st, rng: mpint.NewRNG(7)}
}

// forEachPlatform runs the suite's Table-I tests over the shapes the executor
// gives a platform: the one device New builds, two devices sharing every op,
// and one device killed at its first launch, whose every op the host loop
// serves.
func forEachPlatform(t *testing.T, f func(t *testing.T, p *Platform)) {
	for name, p := range map[string]*Platform{
		"D=1":    testPlatform(t),
		"D=2":    platformOn(t, 2, gpu.FaultConfig{}, ghe.CheckedConfig{}),
		"killed": platformOn(t, 1, gpu.FaultConfig{Seed: 1, KillAtLaunch: 1}, ghe.CheckedConfig{}),
	} {
		t.Run(name, func(t *testing.T) {
			f(t, p)
			health, st := gpu.Sum(p.st.Checked.Devices()).Health, p.st.Checked.Stats()
			if killed := name == "killed"; killed != (health == gpu.DeviceFailed) || killed != (st.HostShards > 0) {
				t.Fatalf("host-loop ledger: health %s, executor %+v on platform %s", health, st, name)
			}
		})
	}
}

func natVec(vals ...uint64) []mpint.Nat {
	out := make([]mpint.Nat, len(vals))
	for i, v := range vals {
		out[i] = mpint.FromUint64(v)
	}
	return out
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(gpu.Config{}, 1); err == nil {
		t.Fatal("zero config should fail")
	}
	if Default(1) == nil {
		t.Fatal("Default should construct")
	}
}

// TestNewStackRejectsOutOfRangePolicy: a fault or checking policy out of
// range is refused, typed, before anything is built.
func TestNewStackRejectsOutOfRangePolicy(t *testing.T) {
	if _, err := NewStack(gpu.SmallTestDevice(), true, 1, gpu.FaultConfig{CorruptProb: math.NaN()}, ghe.CheckedConfig{}); !errors.Is(err, gpu.ErrFaultConfig) {
		t.Errorf("a NaN corruption probability: %v, want gpu.ErrFaultConfig", err)
	}
	if _, err := NewStack(gpu.SmallTestDevice(), true, 1, gpu.FaultConfig{}, ghe.CheckedConfig{VerifyFraction: -1}); !errors.Is(err, ghe.ErrCheckedConfig) {
		t.Errorf("a negative verification fraction: %v, want ghe.ErrCheckedConfig", err)
	}
}

func TestVectorArithmetic(t *testing.T) { forEachPlatform(t, testVectorArithmetic) }

func testVectorArithmetic(t *testing.T, p *Platform) {
	a := natVec(10, 20, 300)
	b := natVec(3, 5, 7)

	sum, err := p.Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	wantSum := []uint64{13, 25, 307}
	for i := range wantSum {
		if v, _ := sum[i].Uint64(); v != wantSum[i] {
			t.Fatalf("Add[%d] = %d", i, v)
		}
	}
	diff, err := p.Sub(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := diff[2].Uint64(); v != 293 {
		t.Fatalf("Sub[2] = %d", v)
	}
	prod, err := p.Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := prod[1].Uint64(); v != 100 {
		t.Fatalf("Mul[1] = %d", v)
	}
	quot, err := p.Div(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := quot[2].Uint64(); v != 42 {
		t.Fatalf("Div[2] = %d", v)
	}
	rem, err := p.Mod(a, mpint.FromUint64(7))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rem[0].Uint64(); v != 3 {
		t.Fatalf("Mod[0] = %d", v)
	}
}

func TestModularOps(t *testing.T) { forEachPlatform(t, testModularOps) }

func testModularOps(t *testing.T, p *Platform) {
	n := mpint.FromUint64(1000003) // prime, odd

	inv, err := p.ModInv(natVec(2, 3, 999), n)
	if err != nil {
		t.Fatal(err)
	}
	for i, base := range []uint64{2, 3, 999} {
		prod := mpint.ModMul(mpint.FromUint64(base), inv[i], n)
		if !prod.IsOne() {
			t.Fatalf("ModInv[%d] wrong", i)
		}
	}
	if _, err := p.ModInv(natVec(0), n); err == nil {
		t.Fatal("inverse of 0 should fail")
	}

	mm, err := p.ModMul(natVec(123456, 999999), natVec(654321, 999999), n)
	if err != nil {
		t.Fatal(err)
	}
	want := mpint.ModMul(mpint.FromUint64(123456), mpint.FromUint64(654321), n)
	if mpint.Cmp(mm[0], want) != 0 {
		t.Fatal("ModMul[0] wrong")
	}
	if _, err := p.ModMul(natVec(1), natVec(1), mpint.FromUint64(8)); err == nil {
		t.Fatal("even modulus should fail")
	}

	mp, err := p.ModPow(natVec(5, 7), mpint.FromUint64(1000002), n)
	if err != nil {
		t.Fatal(err)
	}
	// Fermat: a^(p-1) ≡ 1 mod p.
	if !mp[0].IsOne() || !mp[1].IsOne() {
		t.Fatal("ModPow violates Fermat")
	}
	if _, err := p.ModPow(natVec(1), mpint.One(), mpint.FromUint64(4)); err == nil {
		t.Fatal("even modulus should fail")
	}
}

// TestModulusOne: 1 passed the "odd, not zero" check of ModMul and ModPow and
// took the process down in mpint.NewMont ("Montgomery modulus must be odd and
// >= 3"). It rejects typed, with zero and the even moduli, before anything is
// stated or launched.
func TestModulusOne(t *testing.T) {
	p := Default(1)
	for _, n := range []mpint.Nat{mpint.One(), {1, 0}, mpint.Zero(), mpint.FromUint64(8)} {
		if _, err := p.ModPow(natVec(5), mpint.FromUint64(3), n); !errors.Is(err, ErrModulus) {
			t.Errorf("ModPow mod %s: error %v, want ErrModulus", n, err)
		}
		if _, err := p.ModMul(natVec(5), natVec(7), n); !errors.Is(err, ErrModulus) {
			t.Errorf("ModMul mod %s: error %v, want ErrModulus", n, err)
		}
	}
	if st := p.Device().Stats(); st.KernelLaunches != 0 || st.BytesHostToDev != 0 {
		t.Fatalf("a rejected modulus reached the device: %d launches, %d bytes up", st.KernelLaunches, st.BytesHostToDev)
	}
}

// TestModMulReducesWideOperands: ModMul takes any naturals, as ModPow does. An
// operand wider than n (2¹²⁶ against a one-limb modulus took the process down
// inside a kernel goroutine), one in [n, 2^(64k)) — as wide as n, not below it —
// and n itself all multiply as their residues, on every platform shape, equal
// to math/big; the caller's vectors are left as they were.
func TestModMulReducesWideOperands(t *testing.T) {
	forEachPlatform(t, func(t *testing.T, p *Platform) {
		for _, n := range []mpint.Nat{mpint.FromUint64(1000003), mpint.AddWord(mpint.Lsh(mpint.One(), 100), 277)} {
			wide := mpint.Lsh(mpint.One(), 126)
			inLimb := mpint.Add(n, mpint.FromUint64(5)) // n ≤ x < 2^(64k)
			a := []mpint.Nat{wide, mpint.FromUint64(5), inLimb, n, mpint.FromUint64(7), mpint.Mul(wide, wide)}
			b := []mpint.Nat{mpint.FromUint64(5), wide, inLimb, mpint.FromUint64(9), mpint.FromUint64(11), inLimb}
			keep := wide.Clone()
			got, err := p.ModMul(a, b, n)
			if err != nil {
				t.Fatal(err)
			}
			bn := new(big.Int).SetBytes(n.Bytes())
			for i := range a {
				want := new(big.Int).Mul(new(big.Int).SetBytes(a[i].Bytes()), new(big.Int).SetBytes(b[i].Bytes()))
				if want.Mod(want, bn); new(big.Int).SetBytes(got[i].Bytes()).Cmp(want) != 0 {
					t.Fatalf("ModMul[%d] mod %s = %s, math/big says %s", i, n, got[i], want)
				}
			}
			if mpint.Cmp(a[0], keep) != 0 || mpint.Cmp(b[1], keep) != 0 {
				t.Fatal("ModMul rewrote its caller's operands")
			}
			pw, err := p.ModPow(a, mpint.FromUint64(3), n)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a {
				want := new(big.Int).Exp(new(big.Int).SetBytes(a[i].Bytes()), big.NewInt(3), bn)
				if new(big.Int).SetBytes(pw[i].Bytes()).Cmp(want) != 0 {
					t.Fatalf("ModPow[%d] mod %s = %s, math/big says %s", i, n, pw[i], want)
				}
			}
		}
	})
}

func TestPaillierFamily(t *testing.T) { forEachPlatform(t, testPaillierFamily) }

func testPaillierFamily(t *testing.T, p *Platform) {
	sk, err := p.PaillierKeyGen(128)
	if err != nil {
		t.Fatal(err)
	}
	ms := natVec(0, 1, 42, 123456789)
	cts, err := p.PaillierEncrypt(&sk.PublicKey, ms)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := p.PaillierDecrypt(sk, cts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ms {
		if mpint.Cmp(dec[i], ms[i]) != 0 {
			t.Fatalf("Paillier round trip failed at %d", i)
		}
	}
	sums, err := p.PaillierAdd(&sk.PublicKey, cts, cts)
	if err != nil {
		t.Fatal(err)
	}
	dsum, err := p.PaillierDecrypt(sk, sums)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ms {
		want := mpint.ModAdd(ms[i], ms[i], sk.N)
		if mpint.Cmp(dsum[i], want) != 0 {
			t.Fatalf("PaillierAdd failed at %d", i)
		}
	}
}

func TestRSAFamily(t *testing.T) { forEachPlatform(t, testRSAFamily) }

func testRSAFamily(t *testing.T, p *Platform) {
	sk, err := p.RSAKeyGen(128)
	if err != nil {
		t.Fatal(err)
	}
	ms := natVec(2, 42, 99999)
	cts, err := p.RSAEncrypt(&sk.PublicKey, ms)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := p.RSADecrypt(sk, cts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ms {
		if mpint.Cmp(dec[i], ms[i]) != 0 {
			t.Fatalf("RSA round trip failed at %d", i)
		}
	}
	prods, err := p.RSAMul(&sk.PublicKey, cts, cts)
	if err != nil {
		t.Fatal(err)
	}
	dprod, err := p.RSADecrypt(sk, prods)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ms {
		want := mpint.ModMul(ms[i], ms[i], sk.N)
		if mpint.Cmp(dprod[i], want) != 0 {
			t.Fatalf("RSAMul failed at %d", i)
		}
	}
	if _, err := p.RSAEncrypt(&sk.PublicKey, []mpint.Nat{sk.N}); err == nil {
		t.Fatal("oversized plaintext should fail")
	}
	if _, err := p.RSADecrypt(sk, []rsa.Ciphertext{{C: sk.N}}); err == nil {
		t.Fatal("oversized ciphertext should fail")
	}
	if _, err := p.RSAMul(&sk.PublicKey, cts, cts[:1]); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

func TestDeviceAccounting(t *testing.T) {
	p := testPlatform(t)
	if _, err := p.Add(natVec(1, 2), natVec(3, 4)); err != nil {
		t.Fatal(err)
	}
	if p.Device().Stats().KernelLaunches == 0 {
		t.Fatal("platform calls should launch kernels")
	}
}

func sameVec(t *testing.T, tag string, got, want []mpint.Nat) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if mpint.Cmp(got[i], want[i]) != 0 {
			t.Fatalf("%s[%d] = %s, the host loop says %s", tag, i, got[i], want[i])
		}
	}
}

// each applies fn to every element of a and the matching one of b: the host
// loop of mpint's own ops a Table I vector op is held to.
func each(a, b []mpint.Nat, fn func(x, y mpint.Nat) mpint.Nat) ([]mpint.Nat, error) {
	out := make([]mpint.Nat, len(a))
	for i := range a {
		out[i] = fn(a[i], b[i])
	}
	return out, nil
}

// TestTableIMatchesHostLoop: on every platform shape each vector op of Table I
// returns what mpint's own op computes for the same operands, one element at
// a time — sharded over two devices or served by the host after the device
// died included.
func TestTableIMatchesHostLoop(t *testing.T) {
	forEachPlatform(t, func(t *testing.T, p *Platform) {
		r := mpint.NewRNG(11)
		n := r.RandPrime(96)
		a, b := make([]mpint.Nat, 9), make([]mpint.Nat, 9)
		for i := range a {
			a[i], b[i] = r.RandBits(150), mpint.AddWord(r.RandBelow(mpint.SubWord(n, 1)), 1) // b in [1, n)
		}
		e := r.RandBits(80)
		for _, op := range []struct {
			name      string
			got, want func() ([]mpint.Nat, error)
		}{
			{"Add", func() ([]mpint.Nat, error) { return p.Add(a, b) }, func() ([]mpint.Nat, error) { return each(a, b, mpint.Add) }},
			{"Sub", func() ([]mpint.Nat, error) { return p.Sub(a, b) }, func() ([]mpint.Nat, error) { return each(a, b, mpint.Sub) }},
			{"Mul", func() ([]mpint.Nat, error) { return p.Mul(a, b) }, func() ([]mpint.Nat, error) { return each(a, b, mpint.Mul) }},
			{"Div", func() ([]mpint.Nat, error) { return p.Div(a, b) }, func() ([]mpint.Nat, error) { return each(a, b, mpint.Div) }},
			{"Mod", func() ([]mpint.Nat, error) { return p.Mod(a, n) }, func() ([]mpint.Nat, error) {
				return each(a, a, func(x, _ mpint.Nat) mpint.Nat { return mpint.Mod(x, n) })
			}},
			{"ModMul", func() ([]mpint.Nat, error) { return p.ModMul(b, b, n) }, func() ([]mpint.Nat, error) {
				return each(b, b, func(x, y mpint.Nat) mpint.Nat { return mpint.ModMul(x, y, n) })
			}},
			{"ModPow", func() ([]mpint.Nat, error) { return p.ModPow(a, e, n) }, func() ([]mpint.Nat, error) {
				return each(a, a, func(x, _ mpint.Nat) mpint.Nat { return mpint.ModExp(x, e, n) })
			}},
		} {
			got, err := op.got()
			if err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
			want, err := op.want()
			if err != nil {
				t.Fatal(err)
			}
			sameVec(t, op.name, got, want)
		}
		// Operand errors reject before the executor sees an op.
		ops := p.st.Checked.Stats().Ops
		if _, err := p.Add(a, b[:3]); err == nil {
			t.Error("Add length mismatch should fail")
		}
		if _, err := p.Sub(b, a); err == nil {
			t.Error("Sub underflow should fail")
		}
		if _, err := p.Div(a, make([]mpint.Nat, len(a))); err == nil {
			t.Error("Div by zero should fail")
		}
		if _, err := p.Mod(a, mpint.Zero()); err == nil {
			t.Error("Mod by zero should fail")
		}
		if got := p.st.Checked.Stats().Ops; got != ops {
			t.Errorf("rejected operands reached the executor: %d ops, had %d", got, ops)
		}
	})
}

// TestKeyGenIsAFunctionOfTheSeed: a device-generated key depends on the
// platform's seed and nothing else — not on how many devices searched, not on
// one of them dying mid-search — and two platforms on one seed generate the
// same sequence of keys. (Before the prime search was a descriptor the key was
// whichever racing searcher finished first.)
func TestKeyGenIsAFunctionOfTheSeed(t *testing.T) {
	ref := testPlatform(t)
	want, err := ref.PaillierKeyGen(128)
	if err != nil {
		t.Fatal(err)
	}
	wantRSA, err := ref.RSAKeyGen(128)
	if err != nil {
		t.Fatal(err)
	}
	dying := platformOn(t, 3, gpu.FaultConfig{}, ghe.CheckedConfig{})
	dying.st.Checked.Devices()[1].SetFaultInjector(gpu.NewFaultInjector(gpu.FaultConfig{Seed: 1, KillAtLaunch: 2}))
	for name, p := range map[string]*Platform{
		"D=1 again":            testPlatform(t),
		"D=2":                  platformOn(t, 2, gpu.FaultConfig{}, ghe.CheckedConfig{}),
		"D=3, member 1 killed": dying,
		"killed":               platformOn(t, 1, gpu.FaultConfig{Seed: 1, KillAtLaunch: 1}, ghe.CheckedConfig{}),
	} {
		sk, err := p.PaillierKeyGen(128)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mpint.Cmp(sk.P, want.P) != 0 || mpint.Cmp(sk.Q, want.Q) != 0 {
			t.Errorf("%s: Paillier (p, q) = (%s, %s), the reference platform drew (%s, %s)", name, sk.P, sk.Q, want.P, want.Q)
		}
		rk, err := p.RSAKeyGen(128)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mpint.Cmp(rk.P, wantRSA.P) != 0 || mpint.Cmp(rk.Q, wantRSA.Q) != 0 {
			t.Errorf("%s: RSA (p, q) = (%s, %s), the reference platform drew (%s, %s)", name, rk.P, rk.Q, wantRSA.P, wantRSA.Q)
		}
	}
	if st := dying.st.Checked.Stats(); st.Steals == 0 {
		t.Errorf("member 1 died without its candidates being stolen: %+v", st)
	}
}

// TestKeyGenSizes: a generated key has the size asked for — n used to come out
// a bit short about half the time — and the sizes the host generators reject
// reject here with their error.
func TestKeyGenSizes(t *testing.T) {
	for _, bits := range []int{64, 128} {
		for seed := uint64(1); seed <= 32; seed++ {
			p, err := New(gpu.SmallTestDevice(), seed)
			if err != nil {
				t.Fatal(err)
			}
			sk, err := p.PaillierKeyGen(bits)
			if err != nil || sk.KeyBits() != bits {
				t.Fatalf("seed %d: Paillier key of %d bits (%v), want %d", seed, sk.KeyBits(), err, bits)
			}
			rk, err := p.RSAKeyGen(bits)
			if err != nil || rk.N.BitLen() != bits {
				t.Fatalf("seed %d: RSA key of %d bits (%v), want %d", seed, rk.N.BitLen(), err, bits)
			}
		}
	}
	p := testPlatform(t)
	for _, bits := range []int{129, 14} {
		why := mpint.CheckKeyBits(bits).Error()
		if sk, err := p.PaillierKeyGen(bits); sk != nil || err == nil || !strings.HasSuffix(err.Error(), "paillier: "+why) {
			t.Errorf("PaillierKeyGen(%d) = %v, %v; want the size rejection, named paillier's", bits, sk, err)
		}
		if sk, err := p.RSAKeyGen(bits); sk != nil || err == nil || !strings.HasSuffix(err.Error(), "rsa: "+why) {
			t.Errorf("RSAKeyGen(%d) = %v, %v; want the size rejection, named rsa's", bits, sk, err)
		}
	}
	if p.Device().Stats().KernelLaunches != 0 {
		t.Error("a rejected key size launched a search")
	}
}

// TestTableIUnderCorruption: with every element verified, a platform whose
// device silently corrupts half its launches still returns the host loop's
// vectors and the reference platform's key — the corrupted arithmetic and
// prime-test lanes are caught and retried like any other op's.
func TestTableIUnderCorruption(t *testing.T) {
	p := platformOn(t, 1, gpu.FaultConfig{Seed: 5, CorruptProb: 0.5},
		ghe.CheckedConfig{VerifyFraction: 1, VerifySeed: 5, MaxRetries: 12})
	r := mpint.NewRNG(13)
	for round := 0; round < 6; round++ {
		a, b := []mpint.Nat{r.RandBits(200), r.RandBits(64), r.RandBits(130)}, []mpint.Nat{r.RandBits(90), r.RandBits(64), r.RandBits(7)}
		got, err := p.Mul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := each(a, b, mpint.Mul)
		sameVec(t, "Mul under corruption", got, want)
		if got, err = p.Div(a, b); err != nil {
			t.Fatal(err)
		}
		want, _ = each(a, b, mpint.Div)
		sameVec(t, "Div under corruption", got, want)
	}
	sk, err := p.PaillierKeyGen(128)
	if err != nil {
		t.Fatal(err)
	}
	want, err := testPlatform(t).PaillierKeyGen(128)
	if err != nil {
		t.Fatal(err)
	}
	if mpint.Cmp(sk.N, want.N) != 0 {
		t.Fatalf("key under corruption has n = %s, the clean platform drew %s", sk.N, want.N)
	}
	if st, dev := p.st.Checked.Stats(), gpu.Sum(p.st.Checked.Devices()); dev.FaultCorruptions == 0 || st.Retries == 0 || st.HostShards != 0 {
		t.Fatalf("corrupted launches should be caught and retried on the device: %+v, device %+v", st, dev)
	}
}
