package fl

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"flbooster/internal/flnet"
)

// TestChaosRoundsCompleteOrFailTyped is the chaos acceptance suite: under
// seeded probabilistic drops, duplication, and reordering, every
// SecureAggregate call must either complete (via retry or K-of-N quorum,
// with dropped clients reported) or return a typed phase/party error — and
// do either within the configured deadlines, never hang. Each seed runs
// twice: the rounds and the injected faults are a function of the seed.
func TestChaosRoundsCompleteOrFailTyped(t *testing.T) {
	grads := [][]float64{{0.1, -0.3}, {0.1, -0.3}, {0.1, -0.3}, {0.1, -0.3}}
	for seed := uint64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			run := func() ([]roundView, flnet.ChaosStats) {
				ctx, err := NewContext(quorumProfile(SystemFLBooster))
				if err != nil {
					t.Fatal(err)
				}
				fed := NewFederation(ctx)
				defer fed.Close()
				chaos := flnet.NewChaosTransport(fed.Transport, flnet.ChaosConfig{
					Seed:        seed,
					DropProb:    0.15,
					DupProb:     0.15,
					ReorderProb: 0.2,
				})
				fed.Transport = chaos

				var views []roundView
				for round := 0; round < 4; round++ {
					start := time.Now()
					sum, rep, err := fed.SecureAggregateReport(grads)
					elapsed := time.Since(start)
					views = append(views, viewRound(sum, rep, err))
					// Phase deadlines are 200ms; with retries and four phases a
					// round must resolve within a couple of seconds either way.
					if elapsed > 10*time.Second {
						t.Fatalf("round %d took %v: deadline not enforced", round, elapsed)
					}
					if err != nil {
						var rerr *RoundError
						if !errors.As(err, &rerr) {
							t.Fatalf("round %d: untyped failure %T: %v", round, err, err)
						}
						if rerr.Phase == "" {
							t.Fatalf("round %d: error missing phase: %v", round, rerr)
						}
						continue
					}
					// A client lost before aggregation must not appear in
					// Included; a decrypt-phase drop legitimately can (its
					// gradient was aggregated, only its result copy was lost).
					for party, phase := range rep.Dropped {
						if phase == PhaseDecrypt {
							continue
						}
						for _, inc := range rep.Included {
							if inc == party {
								t.Fatalf("round %d: %s dropped in %s yet included: %+v", round, party, phase, rep)
							}
						}
					}
					if len(rep.Included) < 3 {
						t.Fatalf("round %d completed below quorum: %+v", round, rep)
					}
					// Identical client gradients: the scaled estimate must match
					// the true full-federation sum whatever subset contributed.
					bound := 4 * rep.Scale * ctx.Quant.MaxError()
					for i, want := range []float64{0.4, -1.2} {
						if d := sum[i] - want; d > bound || d < -bound {
							t.Fatalf("round %d sum[%d] = %v, want %v ± %v (report %+v)",
								round, i, sum[i], want, bound, rep)
						}
					}
				}
				return views, chaos.Stats()
			}
			views, stats := run()
			again, againStats := run()
			if !reflect.DeepEqual(views, again) || stats != againStats {
				t.Fatalf("seed %d diverged across identical runs:\n%+v %+v\n%+v %+v", seed, views, stats, again, againStats)
			}
			completed := 0
			for _, v := range views {
				if v.Err == "" {
					completed++
				}
			}
			t.Logf("seed %d: %d/4 rounds completed, stats %+v", seed, completed, stats)
		})
	}
}

// TestStragglerDegradesGracefully makes every frame from one client late:
// each round must complete with the other three clients, reporting the
// straggler cut off in gather, and the epoch's modelled clock must not pay
// for it. The straggler's uploads are sent and charged; the rounds only lose
// the aggregate copies they no longer send it and the HE work of its
// contribution.
func TestStragglerDegradesGracefully(t *testing.T) {
	const rounds = 3
	grads := [][]float64{{0.1, 0.2}, {0.1, 0.2}, {0.1, 0.2}, {0.1, 0.2}}

	run := func(straggle bool) CostSnapshot {
		ctx, err := NewContext(quorumProfile(SystemFLBooster))
		if err != nil {
			t.Fatal(err)
		}
		fed := NewFederation(ctx)
		defer fed.Close()
		if straggle {
			fed.Transport = flnet.NewChaosTransport(fed.Transport, flnet.ChaosConfig{
				Seed:           11,
				StragglerParty: ClientName(0),
			})
		}
		for i := 0; i < rounds; i++ {
			_, rep, err := fed.SecureAggregateReport(grads)
			if err != nil {
				t.Fatalf("straggle=%v round %d: %v", straggle, i, err)
			}
			if !straggle {
				if rep.Degraded() {
					t.Fatalf("clean round %d dropped clients: %+v", i, rep)
				}
				continue
			}
			if phase, ok := rep.Dropped[ClientName(0)]; !ok || phase != PhaseGather || len(rep.Dropped) != 1 {
				t.Fatalf("round %d: straggler not reported dropped in gather: %+v", i, rep)
			}
			if len(rep.Included) != 3 {
				t.Fatalf("round %d included %v", i, rep.Included)
			}
		}
		return ctx.Costs.Snapshot()
	}

	clean, degraded := run(false), run(true)
	if degraded.CommMsgs != clean.CommMsgs-rounds || degraded.CommSim >= clean.CommSim {
		t.Fatalf("degraded comm %d msgs %v, want one aggregate copy a round fewer than clean's %d msgs %v",
			degraded.CommMsgs, degraded.CommSim, clean.CommMsgs, clean.CommSim)
	}
	if degraded.HESim >= clean.HESim {
		t.Fatalf("degraded HE %v not below clean %v: the straggler's upload was aggregated", degraded.HESim, clean.HESim)
	}
	t.Logf("modelled comm %v → %v, HE %v → %v", clean.CommSim, degraded.CommSim, clean.HESim, degraded.HESim)
}
