package fl

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"flbooster/internal/flnet"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
)

// arenaCts draws n values in [1, 2^254]: ciphertexts to the
// DecodeCiphertexts of a testProfile context, whose 128-bit n has n² > 2^254.
func arenaCts(n int) []paillier.Ciphertext {
	rng := mpint.NewRNG(31)
	cts := make([]paillier.Ciphertext, n)
	for i := range cts {
		cts[i] = paillier.Ciphertext{C: mpint.AddWord(rng.RandBits(254), 1)}
	}
	return cts
}

// encodeCiphertexts frames cts for the wire into fresh bytes of the frame's
// exact length: one allocation.
func encodeCiphertexts(cts []paillier.Ciphertext) []byte {
	nats := natsOf(cts)
	size := flnet.NatsSize(nats)
	arena.putNats(nats)
	return appendCiphertexts(make([]byte, 0, size), cts)
}

// TestArenaCodecRoundtrip: the arena-backed codec is byte- and value-exact
// with the plain flnet framing, including across pool reuse cycles.
func TestArenaCodecRoundtrip(t *testing.T) {
	ctx, err := NewContext(testProfile(SystemFLBooster))
	if err != nil {
		t.Fatal(err)
	}
	cts := arenaCts(9)
	nats := make([]mpint.Nat, len(cts))
	for i, c := range cts {
		nats[i] = c.C
	}
	want := flnet.AppendNats(nil, nats)
	for cycle := 0; cycle < 3; cycle++ {
		got := encodeCiphertexts(cts)
		if !bytes.Equal(got, want) {
			t.Fatalf("cycle %d: arena encoding differs from plain codec", cycle)
		}
		dec, err := ctx.DecodeCiphertexts(got)
		if err != nil {
			t.Fatal(err)
		}
		if len(dec) != len(cts) {
			t.Fatalf("cycle %d: decoded %d ciphertexts, want %d", cycle, len(dec), len(cts))
		}
		for i := range dec {
			if mpint.Cmp(dec[i].C, cts[i].C) != 0 {
				t.Fatalf("cycle %d: ciphertext %d corrupted by pooling", cycle, i)
			}
		}
		paillier.ReleaseBatch(dec)
	}
}

// TestUploadFramesRecycleUnderChaos holds the upload frames' ownership rule
// (wireArena) under a ChaosTransport that delivers every frame twice — the
// duplicate shares its original's bytes — and holds half of them back behind
// the next: three rounds of a cohort of 9 admitted in waves of 3, through a
// tree of fan-out 3 and flat, so the frames one wave's gather hands back are
// what the next wave uploads in, and duplicates of them are still queued.
// Every round must include all 9 members — a held-back last upload of a wave
// still makes its cutoff — with an aggregate equal, bit for bit, to the same
// rounds on the same seed with no chaos at all, whatever order the uploads
// were folded in. A coordinator that released a frame before decoding it
// would decode the zeroes a release leaves, and one that released a
// duplicate would hand two later uploads one frame.
func TestUploadFramesRecycleUnderChaos(t *testing.T) {
	for _, fanout := range []int{3, 0} {
		t.Run(fmt.Sprintf("fanout=%d", fanout), func(t *testing.T) {
			p := cohortDraw(SystemFLBooster, 1, CohortPolicy{}, RoundPolicy{}).p
			p.Cohort = CohortPolicy{Fanout: fanout, MaxInflight: 3}
			p.Round = RoundPolicy{Quorum: 1, PhaseTimeout: time.Second}
			grads := testGrads(p.Parties, 24)
			run := func(cfg flnet.ChaosConfig) ([][]float64, []RoundReport) {
				ctx, err := NewContext(p)
				if err != nil {
					t.Fatal(err)
				}
				fed := NewFederation(ctx)
				defer fed.Close()
				fed.Transport = flnet.NewChaosTransport(fed.Transport, cfg)
				var sums [][]float64
				var reps []RoundReport
				for r := range 3 {
					sum, rep, err := fed.SecureAggregateReport(grads)
					if err != nil {
						t.Fatalf("round %d (dup probability %v): %v", r, cfg.DupProb, err)
					}
					sums, reps = append(sums, sum), append(reps, rep)
				}
				return sums, reps
			}
			want, wantReps := run(flnet.ChaosConfig{Seed: 5})
			got, reps := run(flnet.ChaosConfig{Seed: 5, DupProb: 1, ReorderProb: 0.5})
			for r := range got {
				if reps[r].Duplicates == 0 || len(reps[r].Included) != p.Parties || !slices.Equal(reps[r].Included, wantReps[r].Included) {
					t.Fatalf("round %d: %d duplicates, included %v; want duplicates and all of %v",
						r, reps[r].Duplicates, reps[r].Included, wantReps[r].Included)
				}
				if len(got[r]) != len(want[r]) {
					t.Fatalf("round %d: %d values, want %d", r, len(got[r]), len(want[r]))
				}
				for i := range got[r] {
					if math.Float64bits(got[r][i]) != math.Float64bits(want[r][i]) {
						t.Fatalf("round %d: value %d is %v, want %v", r, i, got[r][i], want[r][i])
					}
				}
			}
		})
	}
}
