package flbooster

import (
	"testing"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// TestFacadeSecureAggregation drives the README quickstart path through the
// public facade only.
func TestFacadeSecureAggregation(t *testing.T) {
	p := NewProfile(SystemFLBooster, 128, 4)
	p.RBits = 14
	p.Device = gpu.SmallTestDevice()
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()

	grads := [][]float64{
		{0.12, -0.34}, {0.21, 0.43}, {-0.11, 0.22}, {0.05, -0.10},
	}
	sum, err := fed.SecureAggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.27, 0.21}
	bound := 4 * ctx.Quant.MaxError()
	for i := range want {
		if d := sum[i] - want[i]; d > bound || d < -bound {
			t.Fatalf("sum[%d] = %v, want %v", i, sum[i], want[i])
		}
	}
}

// TestFacadeSystems pins the exported system identifiers to the paper's
// names.
func TestFacadeSystems(t *testing.T) {
	if SystemFATE != "FATE" || SystemHAFLO != "HAFLO" || SystemFLBooster != "FLBooster" {
		t.Fatal("system names drifted from the paper")
	}
	if SystemNoGHE != "FLBooster w/o GHE" || SystemNoBC != "FLBooster w/o BC" {
		t.Fatal("ablation names drifted from the paper")
	}
}

// TestFacadePlatform exercises the Table-I surface through the facade.
func TestFacadePlatform(t *testing.T) {
	plat := NewPlatform(7)
	a := []mpint.Nat{mpint.FromUint64(40)}
	b := []mpint.Nat{mpint.FromUint64(2)}
	sum, err := plat.Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := sum[0].Uint64(); v != 42 {
		t.Fatalf("facade Add = %d", v)
	}
	if gpu.RTX3090().SMs != 82 {
		t.Fatal("RTX 3090 model drifted")
	}
}
