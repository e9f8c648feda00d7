//go:build !race

// Under the race detector sync.Pool drops a quarter of its Puts on purpose, so
// pooled batches are re-allocated at random and allocation figures stop
// meaning anything; these pins run in the plain test pass.

package models

import (
	"runtime"
	"testing"

	"flbooster/internal/fl"
)

// TestWarmHeteroEpochBytes pins the heap bytes of a warm Hetero LR and Hetero
// NN epoch at the benchmark's shape on a 1,024-bit key: every batch a
// minibatch kills — the host score batches, the aggregate, the residuals or
// deltas, the weighted sums and their packed image — goes back to the pool,
// public-key encryption writes into dead limbs, each host's split terms and
// return-path scratch persist across minibatches, and so does every
// minibatch float vector of the models (vertical's scratch). What is left is
// fl's and mpint's: the return path, the multi-exponentiation tables and the
// limbs the decryptions take out of the ciphertext pool. Measured on one P:
// Hetero LR 3.1 kB an epoch (9.1 while the models allocated their vectors a
// minibatch, 11.5 while the guest encrypted its own scores, 152 before the
// batches recycled), Hetero NN 7.4 kB (45.3 with its vectors allocated a
// minibatch); each ceiling ~25% above.
func TestWarmHeteroEpochBytes(t *testing.T) {
	for _, c := range []struct {
		model   string
		ceiling float64
	}{
		{"Hetero LR", 4e3},
		{"Hetero NN", 9.3e3},
	} {
		t.Run(c.model, func(t *testing.T) {
			// On one P every pooled batch goes back to the cache it is drawn
			// from: with two, a loaded host read Hetero NN at 7.4–14.5 kB.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			m := verticalShape(t, c.model, testCtxKey(t, fl.SystemFLBooster, 1024))
			defer m.Close()
			epoch := func() {
				if _, err := m.TrainEpoch(); err != nil {
					t.Fatal(err)
				}
			}
			for range 3 {
				epoch()
			}
			// The least of three three-epoch windows: a collection inside a
			// window empties the pools once, and one of the three misses it.
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
			t.Logf("%.1f kB a warm epoch (ceiling %.1f)", best/1e3, c.ceiling/1e3)
			if best > c.ceiling {
				t.Errorf("%.1f kB a warm epoch, ceiling %.1f", best/1e3, c.ceiling/1e3)
			}
		})
	}
}

// TestOracleEpochAllocatesNothing pins the plaintext oracles (nil context) of
// Hetero LR and Hetero NN at the benchmark's shape: once warm, an epoch and
// its Loss fill the models' minibatch scratch in place and allocate nothing.
// Hetero LR allocated 48 times a warm epoch and Hetero NN 171 while their
// vectors were made a minibatch.
func TestOracleEpochAllocatesNothing(t *testing.T) {
	for _, model := range []string{"Hetero LR", "Hetero NN"} {
		m := verticalShape(t, model, nil)
		if _, err := m.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := m.TrainEpoch(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s oracle: %v allocations a warm epoch, want 0", model, allocs)
		}
	}
}
