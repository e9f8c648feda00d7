package fl

import (
	"errors"
	"fmt"
	"testing"

	"flbooster/internal/gpu"
)

// devsetProfile is testProfile sharded across d simulated devices.
func devsetProfile(d int) Profile {
	p := testProfile(SystemFLBooster)
	p.Devices = d
	return p
}

// refEpoch runs the uninterrupted single-device reference epoch.
func refEpoch(t *testing.T, rounds int, grads [][][]float64) [][]float64 {
	t.Helper()
	ctx, err := NewContext(testProfile(SystemFLBooster))
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	out := make([][]float64, rounds)
	for r := 0; r < rounds; r++ {
		if out[r], err = fed.SecureAggregate(grads[r]); err != nil {
			t.Fatalf("reference round %d: %v", r+1, err)
		}
	}
	return out
}

// TestShardedBitExactWithSequential is the fl-layer acceptance property: a
// secure-aggregation epoch over a D-device sharded context produces results
// bit-identical to the single-device run, for every D, with a device killed
// mid-epoch, and across a coordinator crash/recovery.
func TestShardedBitExactWithSequential(t *testing.T) {
	// 64 gradient values per party span several packed plaintexts, so every
	// HE batch really shards across the fleet (one plaintext would collapse
	// each op to a single shard on device 0).
	const rounds = 3
	parties := testProfile(SystemFLBooster).Parties
	grads := epochGrads(rounds, parties, 64)
	ref := refEpoch(t, rounds, grads)

	runEpoch := func(t *testing.T, ctx *Context) [][]float64 {
		t.Helper()
		fed := NewFederation(ctx)
		defer fed.Close()
		out := make([][]float64, rounds)
		var err error
		for r := 0; r < rounds; r++ {
			if out[r], err = fed.SecureAggregate(grads[r]); err != nil {
				t.Fatalf("round %d: %v", r+1, err)
			}
		}
		return out
	}
	checkRef := func(t *testing.T, got [][]float64) {
		t.Helper()
		for r := range got {
			if !sameBits(got[r], ref[r]) {
				t.Fatalf("round %d diverged from single-device reference\n got %v\nwant %v", r+1, got[r], ref[r])
			}
		}
	}

	for _, d := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("D=%d/plain", d), func(t *testing.T) {
			ctx, err := NewContext(devsetProfile(d))
			if err != nil {
				t.Fatal(err)
			}
			if len(ctx.Checked.Devices()) != d || ctx.Device != ctx.Checked.Devices()[0] {
				t.Fatalf("context wiring: %d members, Device %v", len(ctx.Checked.Devices()), ctx.Device)
			}
			checkRef(t, runEpoch(t, ctx))
			if st := ctx.Checked.Stats(); st.Shards == 0 || st.SimParallelTime <= 0 {
				t.Fatalf("epoch ran without sharded dispatch: %+v", st)
			}
		})

		t.Run(fmt.Sprintf("D=%d/mid-batch-kill", d), func(t *testing.T) {
			ctx, err := NewContext(devsetProfile(d))
			if err != nil {
				t.Fatal(err)
			}
			// Kill one device a few launches into the first round's encrypts — its
			// third launch is the third client's batch (it was the first client's
			// combine when a batch took three): every shard it still holds must
			// migrate (or, at D=1, fall back to the host) without changing a
			// single result bit.
			kill := d - 1
			if kill > 1 {
				kill = 1
			}
			ctx.Checked.Devices()[kill].SetFaultInjector(gpu.NewFaultInjector(gpu.FaultConfig{Seed: 7, KillAtLaunch: 3}))
			checkRef(t, runEpoch(t, ctx))
			st := ctx.Checked.Stats()
			if d > 1 {
				if st.Steals == 0 || st.RebalanceSim <= 0 {
					t.Fatalf("kill at D=%d triggered no work stealing: %+v", d, st)
				}
			} else if st.HostShards == 0 {
				t.Fatalf("kill at D=1 never fell back to the host: %+v", st)
			}
			if dead := ctx.Checked.Devices()[kill].Stats(); dead.Health != gpu.DeviceFailed || dead.FaultAborts == 0 {
				t.Fatalf("the dead member's ledger missed its death: %+v", dead)
			}
		})

		t.Run(fmt.Sprintf("D=%d/crash-recovery", d), func(t *testing.T) {
			const crashRound = 2
			p := devsetProfile(d)
			store := NewMemStore()
			j, err := NewJournal(store)
			if err != nil {
				t.Fatal(err)
			}
			j.Fail = func(rec JournalRecord) error {
				if rec.Kind == EventAggregated && rec.Round == crashRound {
					return ErrCoordinatorCrash
				}
				return nil
			}
			ctx, err := NewContext(p)
			if err != nil {
				t.Fatal(err)
			}
			fed := NewFederation(ctx)
			fed.AttachJournal(j)
			results := make([][]float64, rounds)
			crashed := false
			for r := 0; r < rounds && !crashed; r++ {
				results[r], err = fed.SecureAggregate(grads[r])
				if err != nil {
					if !errors.Is(err, ErrCoordinatorCrash) {
						t.Fatalf("round %d: %v", r+1, err)
					}
					crashed = true
				}
			}
			fed.Close()
			if !crashed {
				t.Fatal("crash hook never fired")
			}
			ctx2, err := NewContext(p)
			if err != nil {
				t.Fatal(err)
			}
			fed2, state, err := Recover(ctx2, store)
			if err != nil {
				t.Fatal(err)
			}
			defer fed2.Close()
			if state.Resume == nil || state.Resume.Round != crashRound {
				t.Fatalf("no resume point for round %d: %+v", crashRound, state)
			}
			for r := crashRound - 1; r < rounds; r++ {
				if results[r], err = fed2.SecureAggregate(grads[r]); err != nil {
					t.Fatalf("recovered round %d: %v", r+1, err)
				}
			}
			checkRef(t, results)
		})
	}
}
