package fl

import (
	"fmt"
	"testing"

	"flbooster/internal/flnet"
)

// TestDuplicateDeliveryIdempotence runs SecureAggregate under a transport
// that duplicates *every* message and asserts the aggregate is bit-exact
// with the clean run across three seeds (uploads dedup by sender).
// Duplication must be visible in the report, never in the result.
func TestDuplicateDeliveryIdempotence(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p := testProfile(SystemFLBooster)
			grads := epochGrads(1, p.Parties, 6)[0]

			run := func(duplicate bool) ([]float64, RoundReport) {
				ctx, err := NewContext(p)
				if err != nil {
					t.Fatal(err)
				}
				fed := NewFederation(ctx)
				defer fed.Close()
				if duplicate {
					fed.Transport = flnet.NewChaosTransport(fed.Transport, flnet.ChaosConfig{
						Seed:    seed,
						DupProb: 1.0,
					})
				}
				sum, rep, err := fed.SecureAggregateReport(grads)
				if err != nil {
					t.Fatalf("duplicate=%v: %v", duplicate, err)
				}
				return sum, rep
			}

			clean, cleanRep := run(false)
			duped, dupedRep := run(true)
			if !sameBits(clean, duped) {
				t.Fatalf("aggregate diverged under 100%% duplication\n got %v\nwant %v", duped, clean)
			}
			if cleanRep.Duplicates != 0 {
				t.Fatalf("clean run reported duplicates: %+v", cleanRep)
			}
			if dupedRep.Duplicates == 0 {
				t.Fatalf("100%% duplication produced no counted duplicates: %+v", dupedRep)
			}
			if len(dupedRep.Included) != p.Parties {
				t.Fatalf("duplication dropped clients: %+v", dupedRep)
			}
		})
	}
}
