package models

import (
	"testing"

	"flbooster/internal/fl"
)

// verticalShape builds Hetero LR or Hetero NN (hidden width 3) at the
// benchmark's shape — four parties, 32-row minibatches over 100 dense
// 16-feature rows — on ctx, or as the plaintext oracle when ctx is nil.
func verticalShape(t testing.TB, model string, ctx *fl.Context) Model {
	t.Helper()
	ds := denseData(t, 100, 16)
	var (
		m   Model
		err error
	)
	if model == "Hetero LR" {
		m, err = NewHeteroLR(ctx, ds, testOpts())
	} else {
		m, err = NewHeteroNN(ctx, ds, 3, testOpts())
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// BenchmarkVerticalEpoch runs a warm Hetero LR and Hetero NN epoch at the
// benchmark's shape on a 1,024-bit key with its plaintext oracle in lock-step,
// as the repository benchmark's epoch_hetero_lr_1024 step does: -benchmem's
// allocs/op is the vertical models' allocation a step, pinned in bytes by
// TestWarmHeteroEpochBytes and at zero for the oracles by
// TestOracleEpochAllocatesNothing.
func BenchmarkVerticalEpoch(b *testing.B) {
	for _, model := range []string{"Hetero LR", "Hetero NN"} {
		b.Run(model, func(b *testing.B) {
			m := verticalShape(b, model, testCtxKey(b, fl.SystemFLBooster, 1024))
			defer m.Close()
			oracle := verticalShape(b, model, nil)
			step := func() {
				if _, err := m.TrainEpoch(); err != nil {
					b.Fatal(err)
				}
				if _, err := oracle.TrainEpoch(); err != nil {
					b.Fatal(err)
				}
			}
			step()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				step()
			}
		})
	}
}
