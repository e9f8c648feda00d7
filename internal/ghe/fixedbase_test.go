package ghe

import (
	"testing"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// TestFixedBaseExpVecMatchesVarVec pins the comb kernel against the old
// replicated-base path bit-for-bit, across heights.
func TestFixedBaseExpVecMatchesVarVec(t *testing.T) {
	r := mpint.NewRNG(0xFB)
	n := r.RandPrime(128)
	m := mpint.NewMont(n)
	base := r.RandBelow(n)
	exps := make([]mpint.Nat, 24)
	for i := range exps {
		exps[i] = r.RandBits(1 + r.Intn(128))
	}
	exps[0], exps[1] = mpint.Zero(), mpint.One()
	bases := make([]mpint.Nat, len(exps))
	for i := range bases {
		bases[i] = base
	}
	ref := testEngine(t)
	want, err := ref.ModExpVarVec(bases, exps, m)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h <= 8; h++ {
		e := testEngine(t)
		got, err := e.FixedBaseExpVecH(base, exps, m, h)
		if err != nil {
			t.Fatalf("h=%d: %v", h, err)
		}
		for i := range want {
			if mpint.Cmp(got[i], want[i]) != 0 {
				t.Fatalf("h=%d element %d: comb diverges from replicated-base path", h, i)
			}
		}
	}
}

// TestFixedBaseExpVecCheaperThanReplication pins the cost-model direction:
// at equal work the comb kernel must charge less simulated compute than
// replicating the base through the variable-base kernel, and the table's
// H2D upload must appear in the transfer counters.
func TestFixedBaseExpVecCheaperThanReplication(t *testing.T) {
	r := mpint.NewRNG(0xFC)
	n := r.RandPrime(256)
	m := mpint.NewMont(n)
	base := r.RandBelow(n)
	exps := randVec(r, 64, n)
	bases := make([]mpint.Nat, len(exps))
	for i := range bases {
		bases[i] = base
	}

	old := testEngine(t)
	if _, err := old.ModExpVarVec(bases, exps, m); err != nil {
		t.Fatal(err)
	}
	comb := testEngine(t)
	if _, err := comb.FixedBaseExpVec(base, exps, m); err != nil {
		t.Fatal(err)
	}
	oldSt, combSt := old.Device().Stats(), comb.Device().Stats()
	if combSt.SimComputeTime >= oldSt.SimComputeTime {
		t.Errorf("comb compute %v should undercut replicated-base %v", combSt.SimComputeTime, oldSt.SimComputeTime)
	}
	ts := comb.TableStats()
	if ts.Builds != 1 || ts.Ops != int64(len(exps)) || ts.Entries == 0 {
		t.Errorf("table stats: %+v", ts)
	}
	// Table upload: the comb path must move more bytes up than the shared-
	// exponent layout alone (exps + base + 2^h entries).
	if combSt.BytesHostToDev <= natBytes(len(exps), m.Limbs()) {
		t.Errorf("table H2D transfer missing: %d bytes", combSt.BytesHostToDev)
	}
}

// TestFixedBaseExpVecEmpty: a zero-length vector builds nothing and charges
// nothing.
func TestFixedBaseExpVecEmpty(t *testing.T) {
	e := testEngine(t)
	out, err := e.FixedBaseExpVec(mpint.FromUint64(5), nil, mpint.NewMont(mpint.FromUint64(1000003)))
	if err != nil || out != nil {
		t.Fatalf("empty vector: out=%v err=%v", out, err)
	}
	if st := e.Device().Stats(); st.KernelLaunches != 0 {
		t.Errorf("empty vector launched %d kernels", st.KernelLaunches)
	}
}

// TestCheckedFixedBaseCatchesCorruption: an injected silent corruption on the
// comb kernel is caught by the sliding-window recomputation (independent of
// the table) and healed by retry, keeping results bit-exact with the host.
func TestCheckedFixedBaseCatchesCorruption(t *testing.T) {
	c := checkedEngine(t,
		gpu.FaultConfig{Seed: 11, CorruptProb: 0.5},
		CheckedConfig{MaxRetries: 12, VerifyFraction: 1})
	c.Set().Device(0).SetHealthPolicy(gpu.HealthPolicy{DegradeAfter: 2, FailAfter: 1 << 30})
	r := mpint.NewRNG(0xFD)
	n := r.RandPrime(96)
	m := mpint.NewMont(n)
	base := r.RandBelow(n)
	exps := randVec(r, 12, n)
	got, err := c.FixedBaseExpVec(base, exps, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exps {
		if mpint.Cmp(got[i], m.Exp(base, exps[i])) != 0 {
			t.Fatalf("element %d survived corrupted", i)
		}
	}
	if st := c.Stats(); st.VerifyFailures == 0 {
		t.Skip("injector never corrupted the comb kernel at this seed")
	}
}

// BenchmarkFixedBaseVecComb vs BenchmarkFixedBaseVecReplicated measure the
// host-side gain of the shared table (sim-time gains are asserted in tests).
func BenchmarkFixedBaseVecReplicated(b *testing.B) { benchFixedBaseVec(b, false) }
func BenchmarkFixedBaseVecComb(b *testing.B)       { benchFixedBaseVec(b, true) }

func benchFixedBaseVec(b *testing.B, comb bool) {
	r := mpint.NewRNG(0xFE)
	n := r.RandPrime(512)
	m := mpint.NewMont(n)
	base := r.RandBelow(n)
	exps := randVec(r, 32, n)
	bases := make([]mpint.Nat, len(exps))
	for i := range bases {
		bases[i] = base
	}
	e := MustEngine(gpu.MustNew(gpu.SmallTestDevice(), true))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if comb {
			_, err = e.FixedBaseExpVec(base, exps, m)
		} else {
			_, err = e.ModExpVarVec(bases, exps, m)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
