package fl

import (
	"testing"

	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// TestWeightedSumsSurviveDeviceFaults runs the vertical models' operator
// through the executor's whole discipline: a fleet that dies at the kernel's
// own launches fails over to the host loop, a fleet that corrupts lanes is
// caught by the term-by-term check and retried, and either way the sums are
// the healthy run's ciphertexts bit for bit, with the device and executor
// ledgers showing what happened.
func TestWeightedSumsSurviveDeviceFaults(t *testing.T) {
	for _, devices := range []int{1, 2} {
		runOnce := func(pol FaultPolicy) ([]mpint.Nat, *Context) {
			t.Helper()
			p := testProfile(SystemFLBooster)
			p.Devices = devices
			p.Faults = pol
			ctx, err := NewContext(p)
			if err != nil {
				t.Fatal(err)
			}
			h := ctx.NewHolder("arbiter")
			cts, err := h.EncryptBroadcast([]float64{0.5, -0.25, 0.125, 0.75, -0.5, 0.3}, 1)
			if err != nil {
				t.Fatal(err)
			}
			var out []mpint.Nat
			for round := 0; round < 3; round++ {
				sums, err := h.BroadcastSums(cts, [][]mpint.Term{
					{{Index: 0, Weight: 700}, {Index: 1, Weight: 3}, {Index: 5, Weight: 1}},
					{{Index: 2, Weight: 1}, {Index: 3, Weight: 1}, {Index: 4, Weight: 1}},
					{{Index: 5, Weight: 1023}, {Index: 0, Weight: 512}},
					{{Index: 1, Weight: 9}},
				}, 1, false)
				if err != nil {
					t.Fatalf("Devices=%d round %d: %v", devices, round, err)
				}
				for _, c := range sums {
					out = append(out, c.C)
				}
			}
			return out, ctx
		}
		same := func(tag string, got, want []mpint.Nat) {
			t.Helper()
			for i := range want {
				if mpint.Cmp(got[i], want[i]) != 0 {
					t.Fatalf("Devices=%d %s: sum %d differs from the healthy run", devices, tag, i)
				}
			}
		}
		clean, _ := runOnce(FaultPolicy{})
		// The encryption is a device's first launch (its first three, and the
		// kill its fourth, when a batch took three); the second is its first
		// table build.
		killed, ctx := runOnce(FaultPolicy{Inject: gpu.FaultConfig{Seed: 1, KillAtLaunch: 2}})
		same("after failover", killed, clean)
		if dev := gpu.Sum(ctx.Checked.Devices()); dev.Health != gpu.DeviceFailed || ctx.Checked.Stats().HostShards == 0 || dev.FaultAborts == 0 {
			t.Fatalf("Devices=%d: failover not recorded: %+v, executor %+v", devices, dev, ctx.Checked.Stats())
		}
		corrupted, ctx := runOnce(FaultPolicy{
			Inject: gpu.FaultConfig{Seed: 3, CorruptProb: 0.4},
			Check:  ghe.CheckedConfig{MaxRetries: 12, VerifyFraction: 1},
		})
		same("under corruption", corrupted, clean)
		if st, dev := ctx.Checked.Stats(), gpu.Sum(ctx.Checked.Devices()); dev.FaultCorruptions == 0 || st.Retries == 0 {
			t.Fatalf("Devices=%d: expected verification to catch injected corruption, got %+v, device %+v", devices, st, dev)
		}
	}
}

// TestProfileRejectsUnknownSystem: the former constructor panic is now a
// validation error surfaced through NewContext.
func TestProfileRejectsUnknownSystem(t *testing.T) {
	p := NewProfile(System("no-such-system"), 128, 4)
	if _, err := NewContext(p); err == nil {
		t.Fatal("unknown system must be rejected, not panic")
	}
}
