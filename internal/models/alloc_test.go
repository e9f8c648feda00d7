//go:build !race

// Under the race detector sync.Pool drops a quarter of its Puts on purpose, so
// pooled batches are re-allocated at random and allocation figures stop
// meaning anything; this pin runs in the plain test pass.

package models

import (
	"runtime"
	"testing"

	"flbooster/internal/fl"
)

// TestWarmHeteroEpochBytes pins the heap bytes of a warm Hetero LR epoch at
// the benchmark's shape (1,024-bit key, four parties, 32-row minibatches over
// 100 dense 16-feature rows): every batch a minibatch kills — the host score
// batches, the aggregate, the residuals, the weighted sums and their packed
// image — goes back to the pool, public-key encryption writes into dead
// limbs, and each host's split terms and return-path scratch persist across
// minibatches. What is left is the model's own float vectors and the limbs the
// decryptions take out of the ciphertext pool: measured 9.1–9.6 kB an epoch
// (11.5 while the guest encrypted its own scores), the ceiling ~25% above:
// the residual batch left to the collector every minibatch (16.8–17.1 kB) fails
// it, the one-ciphertext score fold (10.2–10.5 kB) does not. With every such
// batch dropped for the collector and the terms gathered afresh every
// minibatch the same epoch took 152 kB.
func TestWarmHeteroEpochBytes(t *testing.T) {
	ctx := testCtxKey(t, fl.SystemFLBooster, 1024)
	m, err := NewHeteroLR(ctx, denseData(t, 100, 16), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	epoch := func() {
		if _, err := m.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		epoch()
	}
	// The least of three three-epoch windows: a collection inside a window
	// empties the pools once, and one of the three misses it.
	best := 0.0
	for w := range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 3 {
			epoch()
		}
		runtime.ReadMemStats(&after)
		if b := float64(after.TotalAlloc-before.TotalAlloc) / 3; w == 0 || b < best {
			best = b
		}
	}
	const ceiling = 12e3
	t.Logf("%.1f kB a warm epoch (ceiling %.1f)", best/1e3, ceiling/1e3)
	if best > ceiling {
		t.Errorf("%.1f kB a warm epoch, ceiling %.1f", best/1e3, ceiling/1e3)
	}
}
