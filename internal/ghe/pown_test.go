package ghe

import (
	"testing"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// testCRT compiles the factorisation of a fresh `bits`-bit two-prime modulus
// and the Montgomery context mod its square.
func testCRT(t testing.TB, r *mpint.RNG, bits int) (*mpint.CRT, *mpint.Mont) {
	t.Helper()
	p, q := r.RandSafePrimePair(bits / 2)
	crt, err := mpint.NewCRT(p, q)
	if err != nil {
		t.Fatal(err)
	}
	return crt, mpint.NewMont(mpint.Mul(crt.N(), crt.N()))
}

// TestPowNVecCheaperThanWindow: the fused kernel is one launch, and the
// device prices it at under a third of the n² window's compute on every
// counter the factorisation touches: word-ops (compute time), registers
// (never lower occupancy) and bytes in.
func TestPowNVecCheaperThanWindow(t *testing.T) {
	r := mpint.NewRNG(0x90)
	crt, n2 := testCRT(t, r, 512)
	xs := randVec(r, 64, crt.N())

	win := testEngine(t)
	if _, err := win.ModExpVec(xs, crt.N(), n2); err != nil {
		t.Fatal(err)
	}
	fused := testEngine(t)
	if _, err := fused.PowNVec(xs, crt, n2); err != nil {
		t.Fatal(err)
	}
	w, f := win.Device().Stats(), fused.Device().Stats()
	if f.KernelLaunches != 1 || w.KernelLaunches != 1 {
		t.Fatalf("launches: fused %d, window %d, want 1 each", f.KernelLaunches, w.KernelLaunches)
	}
	if 3*f.SimComputeTime >= w.SimComputeTime {
		t.Errorf("fused compute %v is not under a third of the window's %v", f.SimComputeTime, w.SimComputeTime)
	}
	if f.BytesHostToDev >= w.BytesHostToDev || f.BytesDevToHost != w.BytesDevToHost {
		t.Errorf("transfers: fused %d in / %d out, window %d in / %d out",
			f.BytesHostToDev, f.BytesDevToHost, w.BytesHostToDev, w.BytesDevToHost)
	}
	st := crt.Stages()
	if got, want := powNWordOps(st), modExpWordOps(n2.Limbs(), crt.N().BitLen()); 3*got >= want {
		t.Errorf("cost formula: fused %d word-ops, window %d", got, want)
	}
	if regsForLimbs(max(st[1].Limbs, st[3].Limbs)) >= regsForLimbs(n2.Limbs()) {
		t.Error("the fused kernel should need fewer registers than the n² window")
	}
	out, err := fused.PowNVec(nil, crt, n2)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %d results", err, len(out))
	}
}

// TestCheckedPowNCatchesCorruption: with every element verified, a poisoned
// item of the fused kernel is caught — by the n² window, which shares
// nothing with it — and healed by retry.
func TestCheckedPowNCatchesCorruption(t *testing.T) {
	c := checkedEngine(t,
		gpu.FaultConfig{Seed: 11, CorruptProb: 0.5},
		CheckedConfig{MaxRetries: 12, VerifyFraction: 1})
	c.Set().Device(0).SetHealthPolicy(gpu.HealthPolicy{DegradeAfter: 2, FailAfter: 1 << 30})
	r := mpint.NewRNG(0xFE)
	crt, n2 := testCRT(t, r, 128)
	xs := randVec(r, 12, crt.N())
	got, err := c.PowNVec(xs, crt, n2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if mpint.Cmp(got[i], n2.Exp(xs[i], crt.N())) != 0 {
			t.Fatalf("element %d survived corrupted", i)
		}
	}
	st := c.Stats()
	if st.VerifyFailures == 0 || st.Retries == 0 {
		t.Fatalf("the injector corrupted no attempt at this seed: %+v", st)
	}
	if st.FallbackOps != 0 {
		t.Fatalf("the retry budget should have healed the op on the device: %+v", st)
	}
}

// TestCheckedPowNFailover: an op the device cannot serve comes from the host
// engine, bit-exact.
func TestCheckedPowNFailover(t *testing.T) {
	c := checkedEngine(t, gpu.FaultConfig{Seed: 1, KillAtLaunch: 1}, CheckedConfig{MaxRetries: 1})
	r := mpint.NewRNG(0xFF)
	crt, n2 := testCRT(t, r, 128)
	xs := randVec(r, 9, crt.N())
	got, err := c.PowNVec(xs, crt, n2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if mpint.Cmp(got[i], n2.Exp(xs[i], crt.N())) != 0 {
			t.Fatalf("element %d differs after failover", i)
		}
	}
	if st := c.Stats(); st.FallbackOps != 1 {
		t.Fatalf("expected a host-served op, got %+v", st)
	}
}
