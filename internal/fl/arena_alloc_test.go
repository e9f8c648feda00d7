//go:build !race

// Under the race detector sync.Pool drops a quarter of its Puts on purpose, so
// pooled batches are re-allocated at random and allocation figures stop
// meaning anything; these pins run in the plain test pass.

package fl

import (
	"runtime"
	"testing"
)

// TestArenaCodecAllocs is the allocation regression guard for the round
// path's codec primitives: with a warm arena, encoding a batch costs exactly
// the payload buffer, decoding into a released batch's limbs costs nothing at
// all, and neither does a plaintext batch's trip through the arena — the pools
// recycle the headers they keep slices behind (boxing one afresh at every
// release cost 2, 2 and 1).
func TestArenaCodecAllocs(t *testing.T) {
	const n = 16
	cts := arenaCts(n)
	payload := EncodeCiphertexts(cts) // warm the nat pool

	if got := testing.AllocsPerRun(100, func() {
		EncodeCiphertexts(cts)
	}); got > 1 {
		t.Errorf("warm arena encode: %.1f allocs per batch, want <= 1", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		dec, err := DecodeCiphertexts(payload)
		if err != nil {
			t.Fatal(err)
		}
		ReleaseCiphertexts(dec)
	}); got > 0 {
		t.Errorf("warm arena decode: %.1f allocs per batch of %d, want 0", got, n)
	}
	if got := testing.AllocsPerRun(100, func() {
		arena.putPlain(arena.getPlain(n))
	}); got > 0 {
		t.Errorf("warm plaintext batch: %.1f allocs a draw and release, want 0", got)
	}
}

// TestWarmRoundBytes pins the heap bytes of a warm round, flat and streamed
// through a tree, at a 512-bit key: every batch a round drops — plaintexts,
// uploads, decoded batches, running sums, the aggregate — is drawn from a pool
// and handed back, so what is left is the payloads, the round's bookkeeping
// and one batch a round that leaves the ciphertext pool as the decrypted
// aggregate. Measured 22.5 kB flat and 43.3 kB tree a round (8 parties, 256
// values); the ceilings sit ~15% above. With every batch allocated afresh the
// same rounds took 58.9 and 81.1 kB.
func TestWarmRoundBytes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cohort  CohortPolicy
		ceiling float64
	}{
		{"flat", CohortPolicy{}, 26e3},
		{"tree", CohortPolicy{Fanout: 2, MaxInflight: 4}, 50e3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := testProfile(SystemFLBooster)
			p.KeyBits, p.Parties, p.Cohort = 512, 8, tc.cohort
			ctx, err := NewContext(p)
			if err != nil {
				t.Fatal(err)
			}
			fed := NewFederation(ctx)
			defer fed.Close()
			grads := testGrads(p.Parties, 256)
			round := func() {
				if _, err := fed.SecureAggregate(grads); err != nil {
					t.Fatal(err)
				}
			}
			for range 3 {
				round()
			}
			// The least of three five-round windows: a collection inside a
			// window empties the pools once, and one of the three misses it.
			best := 0.0
			for w := range 3 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for range 5 {
					round()
				}
				runtime.ReadMemStats(&after)
				if b := float64(after.TotalAlloc-before.TotalAlloc) / 5; w == 0 || b < best {
					best = b
				}
			}
			t.Logf("%s: %.1f kB a warm round (ceiling %.1f)", tc.name, best/1e3, tc.ceiling/1e3)
			if best > tc.ceiling {
				t.Errorf("%s: %.1f kB a warm round, ceiling %.1f", tc.name, best/1e3, tc.ceiling/1e3)
			}
		})
	}
}
