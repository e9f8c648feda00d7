package ghe

import (
	"testing"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// testEngine is the executor over one small device with verification off:
// the reference the sharded, faulted and verified executors are held to.
func testEngine(t testing.TB) *CheckedEngine {
	t.Helper()
	return checkedSet(t, 1, CheckedConfig{})
}

func randVec(r *mpint.RNG, n int, below mpint.Nat) []mpint.Nat {
	v := make([]mpint.Nat, n)
	for i := range v {
		v[i] = r.RandBelow(below)
	}
	return v
}

func TestModExpVecMatchesSerial(t *testing.T) {
	e := testEngine(t)
	r := mpint.NewRNG(1)
	n := r.RandPrime(128)
	m := mpint.NewMont(n)
	bases := randVec(r, 50, n)
	exp := r.RandBits(96)
	got, err := e.ModExpVec(bases, exp, m)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bases {
		if mpint.Cmp(got[i], m.Exp(b, exp)) != 0 {
			t.Fatalf("ModExpVec[%d] mismatch", i)
		}
	}
	st := e.Set().Device(0).Stats()
	if st.BytesHostToDev == 0 || st.BytesDevToHost == 0 || st.SimComputeTime <= 0 {
		t.Fatalf("device accounting missing: %+v", st)
	}
}

func TestModExpVarVec(t *testing.T) {
	e := testEngine(t)
	r := mpint.NewRNG(2)
	n := r.RandPrime(96)
	m := mpint.NewMont(n)
	bases := randVec(r, 30, n)
	exps := make([]mpint.Nat, 30)
	for i := range exps {
		exps[i] = r.RandBits(1 + r.Intn(80))
	}
	got, err := e.ModExpVarVec(bases, exps, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bases {
		if mpint.Cmp(got[i], m.Exp(bases[i], exps[i])) != 0 {
			t.Fatalf("ModExpVarVec[%d] mismatch", i)
		}
	}
	if _, err := e.ModExpVarVec(bases, exps[:5], m); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

func TestModMulVec(t *testing.T) {
	e := testEngine(t)
	r := mpint.NewRNG(4)
	n := r.RandPrime(128)
	m := mpint.NewMont(n)
	a := randVec(r, 40, n)
	b := randVec(r, 40, n)
	got, err := e.ModMulVec(a, b, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		want := mpint.ModMul(a[i], b[i], n)
		if mpint.Cmp(got[i], want) != 0 {
			t.Fatalf("ModMulVec[%d] = %s, want %s", i, got[i], want)
		}
	}
}

func TestElementwiseVectorAPIs(t *testing.T) {
	e := testEngine(t)
	r := mpint.NewRNG(5)
	bound := r.RandBits(128)
	a := randVec(r, 25, bound)
	b := randVec(r, 25, bound)
	sum, err := e.AddVec(a, b)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := e.SubVec(sum, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if mpint.Cmp(diff[i], a[i]) != 0 {
			t.Fatalf("AddVec/SubVec round trip failed at %d", i)
		}
	}
	prod, err := e.MulVec(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if mpint.Cmp(prod[i], mpint.Mul(a[i], b[i])) != 0 {
			t.Fatalf("MulVec mismatch at %d", i)
		}
	}
	bnz := make([]mpint.Nat, len(b))
	for i := range b {
		bnz[i] = mpint.AddWord(b[i], 1)
	}
	quot, err := e.DivVec(prod, bnz)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if mpint.Cmp(quot[i], mpint.Div(prod[i], bnz[i])) != 0 {
			t.Fatalf("DivVec mismatch at %d", i)
		}
	}
	n := r.RandPrime(64)
	rem, err := e.ModVec(a, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if mpint.Cmp(rem[i], mpint.Mod(a[i], n)) != 0 {
			t.Fatalf("ModVec mismatch at %d", i)
		}
	}
}

func TestVectorAPIErrors(t *testing.T) {
	e := testEngine(t)
	one := []mpint.Nat{mpint.One()}
	two := []mpint.Nat{mpint.FromUint64(2)}
	if _, err := e.AddVec(one, nil); err == nil {
		t.Error("AddVec length mismatch should fail")
	}
	if _, err := e.SubVec(one, two); err == nil {
		t.Error("SubVec underflow should fail")
	}
	if _, err := e.DivVec(one, []mpint.Nat{mpint.Zero()}); err == nil {
		t.Error("DivVec by zero should fail")
	}
	if _, err := e.ModVec(one, mpint.Zero()); err == nil {
		t.Error("ModVec zero modulus should fail")
	}
	if _, err := e.MulVec(one, nil); err == nil {
		t.Error("MulVec length mismatch should fail")
	}
	if _, err := e.ModMulVec(one, nil, mpint.NewMont(mpint.FromUint64(13))); err == nil {
		t.Error("ModMulVec length mismatch should fail")
	}
}

// TestRandCoprimeAt: the nonce stream's values are units — in [1, n), coprime
// with n, over a modulus most candidates share a factor with — a pure function
// of (seed, position), and distinct from one position to the next.
func TestRandCoprimeAt(t *testing.T) {
	n := mpint.FromUint64(2 * 3 * 5 * 7 * 11)
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		x := RandCoprimeAt(7, i, n)
		if x.IsZero() || mpint.Cmp(x, n) >= 0 || !mpint.GCD(x, n).IsOne() {
			t.Fatalf("item %d = %s is not a unit mod %s", i, x, n)
		}
		if mpint.Cmp(x, RandCoprimeAt(7, i, n)) != 0 {
			t.Fatalf("item %d differs between two calls", i)
		}
		seen[x.String()] = true
	}
	if len(seen) < 40 {
		t.Fatalf("50 positions drew %d distinct nonces among the 480 units", len(seen))
	}
}

func TestGeneratePrimePair(t *testing.T) {
	e := testEngine(t).PrimeSearch()
	p, q, err := e.Pair(mpint.NewRNG(11), 64)
	if err != nil {
		t.Fatal(err)
	}
	if mpint.Cmp(p, q) == 0 {
		t.Fatal("pair not distinct")
	}
	r := mpint.NewRNG(0)
	if !mpint.IsPrime(p, r) || !mpint.IsPrime(q, r) {
		t.Fatal("device-generated value is composite")
	}
	if p.BitLen() != 64 || q.BitLen() != 64 {
		t.Fatalf("widths %d, %d", p.BitLen(), q.BitLen())
	}
	if _, err := e.Prime(mpint.NewRNG(1), 2); err == nil {
		t.Fatal("tiny width should fail")
	}
}

func TestCostModelMonotonicity(t *testing.T) {
	if montMulWordOps(64) <= montMulWordOps(32) {
		t.Error("CIOS cost should grow with limb count")
	}
	if modExpWordOps(32, 2048) <= modExpWordOps(32, 1024) {
		t.Error("modexp cost should grow with exponent bits")
	}
	if modExpWordOps(32, 0) <= 0 {
		t.Error("degenerate exponent should still cost something")
	}
	if regsForLimbs(1000) != 255 {
		t.Error("register demand should clamp at the hardware limit")
	}
	if regsForLimbs(32) >= regsForLimbs(128) {
		t.Error("register demand should grow with limbs")
	}
}

func BenchmarkModExpVec512(b *testing.B) {
	e := executorOn(b, gpu.RTX3090(), 1, CheckedConfig{})
	r := mpint.NewRNG(20)
	n := r.RandBits(512)
	n[0] |= 1
	m := mpint.NewMont(n)
	bases := randVec(r, 256, n)
	exp := r.RandBits(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ModExpVec(bases, exp, m); err != nil {
			b.Fatal(err)
		}
	}
}
