//go:build !race

// Under the race detector sync.Pool drops a quarter of its Puts on purpose, so
// pooled batches are re-allocated at random and allocation figures stop
// meaning anything; these pins run in the plain test pass.

package fl

import (
	"errors"
	"runtime"
	"testing"

	"flbooster/internal/paillier"
)

// TestArenaCodecAllocs is the allocation regression guard for the round
// path's codec primitives: with a warm arena, encoding a batch costs exactly
// the payload buffer, framing an upload (frameCiphertexts) into a released
// frame costs nothing, decoding into a released batch's limbs costs nothing
// at all, and neither does a plaintext batch's trip through the arena — the
// pools recycle the headers they keep slices behind (boxing one afresh at
// every release cost 2, 2 and 1).
func TestArenaCodecAllocs(t *testing.T) {
	const n = 16
	ctx, err := NewContext(testProfile(SystemFLBooster))
	if err != nil {
		t.Fatal(err)
	}
	cts := arenaCts(n)
	payload := encodeCiphertexts(cts) // warm the nat pool

	if got := testing.AllocsPerRun(100, func() {
		encodeCiphertexts(cts)
	}); got > 1 {
		t.Errorf("warm arena encode: %.1f allocs per batch, want <= 1", got)
	}
	releaseFrame(frameCiphertexts(nil, cts))
	if got := testing.AllocsPerRun(100, func() {
		releaseFrame(frameCiphertexts(nil, cts))
	}); got > 0 {
		t.Errorf("warm upload frame: %.1f allocs a framing and release, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		dec, err := ctx.DecodeCiphertexts(payload)
		if err != nil {
			t.Fatal(err)
		}
		paillier.ReleaseBatch(dec)
	}); got > 0 {
		t.Errorf("warm arena decode: %.1f allocs per batch of %d, want 0", got, n)
	}
	if got := testing.AllocsPerRun(100, func() {
		arena.putPlain(arena.getPlain(n))
	}); got > 0 {
		t.Errorf("warm plaintext batch: %.1f allocs a draw and release, want 0", got)
	}
}

// TestRejectedOpenAllocs: an aggregate frame that parses but does not open
// (tooWideFrame, ErrBadAggregate) hands its decoded batch back to the pool
// like an accepted one, so a rejected Open allocates the same under a
// 2-ciphertext packing as under a 10-ciphertext one. When the reject leaked
// the batch it was 11–12 and 19–20 allocations; handed back, 8 and 8.
func TestRejectedOpenAllocs(t *testing.T) {
	shapes := openShapes(t)
	var allocs []float64
	for _, sh := range []openShape{shapes[0], shapes[2]} {
		frame := tooWideFrame(t, sh)
		open := func() {
			if _, _, err := sh.client.Open(frame, openFuzzDim, nil); !errors.Is(err, ErrBadAggregate) {
				t.Fatalf("%s: opened with %v, want ErrBadAggregate", sh.name, err)
			}
		}
		open()
		allocs = append(allocs, testing.AllocsPerRun(50, open))
		t.Logf("%s: %.0f allocations a rejected open", sh.name, allocs[len(allocs)-1])
	}
	if allocs[0] != allocs[1] {
		t.Errorf("a rejected open allocates %.0f on %s and %.0f on %s: the decoded batch leaks",
			allocs[0], shapes[0].name, allocs[1], shapes[2].name)
	}
}

// TestWarmRoundBytes pins the heap bytes of a warm round, flat and streamed
// through a tree, at a 512-bit key: every batch a round drops — plaintexts,
// uploads, decoded batches, running sums, the aggregate — is drawn from a pool
// and handed back — the upload frames too, by the coordinator that decoded
// them, and the decrypted aggregate's limbs to the ciphertext pool they came
// from — and the round's bookkeeping is scratch its coordinator and
// federation reuse, so what is left is the aggregate frame, the decoded
// estimate and bookkeeping that does not grow with the round. Measured 5.0 kB
// flat and 5.0 kB tree a round (8 parties, 256 values); the ceilings sit
// 30–40% above. Flat was 5.6 kB while a flat round held every upload until it
// sealed. With every upload frame allocated afresh it was 19.5 and 19.0 kB,
// and with every batch allocated afresh 58.9 and 81.1 kB.
func TestWarmRoundBytes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cohort  CohortPolicy
		ceiling float64
	}{
		{"flat", CohortPolicy{}, 7.1e3},
		{"tree", CohortPolicy{Fanout: 2, MaxInflight: 4}, 6.6e3},
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

// TestCohortRoundAllocsPerMember pins what a warm round allocates for each
// cohort member, in allocations and in bytes: 128-bit tree rounds (fan-out 8,
// waves of 32) at cohort 64 and 256, sampled out of a roster four times that
// size. The slope between the two is the per-member cost — the member's
// share of the transport's queue and the tree's partial frames; its upload
// frame is one a gather handed back. Measured 0.08 allocations and 24 B a
// member; the ceilings sit 25% above. With an upload frame allocated a member
// it was 1.08 allocations and 185 B. When the roster, the sampler's pool, the
// canonical-order index, the broadcast and decrypt lists and the gather's
// slices were rebuilt every round it was 1.14 allocations and 422 B a member:
// each of those was one allocation a round, but one that grew with the
// cohort.
func TestCohortRoundAllocsPerMember(t *testing.T) {
	const allocCeiling, byteCeiling = 0.10, 30.0
	measure := func(cohort int) (allocs, bytes float64) {
		p := NewProfile(SystemFLBooster, 128, 4*cohort)
		p.RBits = 16
		p.Cohort = CohortPolicy{Size: cohort, Fanout: 8, MaxInflight: 32}
		ctx, err := NewContext(p)
		if err != nil {
			t.Fatal(err)
		}
		fed := NewFederation(ctx)
		defer fed.Close()
		grads := testGrads(p.Parties, 16)
		round := func() {
			if _, err := fed.SecureAggregate(grads); err != nil {
				t.Fatal(err)
			}
		}
		for range 3 {
			round()
		}
		// The least of three five-round windows, as in TestWarmRoundBytes.
		for w := range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range 5 {
				round()
			}
			runtime.ReadMemStats(&after)
			a := float64(after.Mallocs-before.Mallocs) / 5
			b := float64(after.TotalAlloc-before.TotalAlloc) / 5
			if w == 0 || a < allocs {
				allocs = a
			}
			if w == 0 || b < bytes {
				bytes = b
			}
		}
		return allocs, bytes
	}
	smallAllocs, smallBytes := measure(64)
	largeAllocs, largeBytes := measure(256)
	allocSlope := (largeAllocs - smallAllocs) / (256 - 64)
	byteSlope := (largeBytes - smallBytes) / (256 - 64)
	t.Logf("a round: %.0f allocs, %.1f kB at cohort 64; %.0f allocs, %.1f kB at 256", smallAllocs, smallBytes/1e3, largeAllocs, largeBytes/1e3)
	t.Logf("a member: %.2f allocs (ceiling %.2f), %.0f B (ceiling %.0f)", allocSlope, allocCeiling, byteSlope, byteCeiling)
	if allocSlope > allocCeiling {
		t.Errorf("%.2f allocations a cohort member, ceiling %.2f", allocSlope, allocCeiling)
	}
	if byteSlope > byteCeiling {
		t.Errorf("%.0f B allocated a cohort member, ceiling %.0f", byteSlope, byteCeiling)
	}
}

// BenchmarkCohortRound is one warm round of cohort_tree_128's shape: 128-bit
// keys, 2,048 parties, a sampled cohort of 512 folded through a fan-out-8
// tree in waves of 32, 16 values a client. allocs/op is what a steady-state
// round allocates: the aggregate frame, and bookkeeping that does not grow
// with the cohort.
func BenchmarkCohortRound(b *testing.B) {
	p := NewProfile(SystemFLBooster, 128, 2048)
	p.RBits = 16
	p.Cohort = CohortPolicy{Size: 512, Fanout: 8, MaxInflight: 32}
	ctx, err := NewContext(p)
	if err != nil {
		b.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	grads := testGrads(p.Parties, 16)
	for range 3 {
		if _, err := fed.SecureAggregate(grads); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := fed.SecureAggregate(grads); err != nil {
			b.Fatal(err)
		}
	}
}
