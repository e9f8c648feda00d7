package fl

import (
	"bytes"
	"fmt"
	"testing"

	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// TestSecureAggregateSurvivesDeviceDeath kills every device of the fleet
// after its first kernel launch, at each device count a profile can ask for
// (0 and 1 are the same one-device set): the round must still complete
// through the host loop with an aggregate identical to a healthy run, the
// fault report must show the failover, and the next encryption must be the
// healthy run's ciphertexts byte for byte. A second leg corrupts results
// instead of killing the devices.
func TestSecureAggregateSurvivesDeviceDeath(t *testing.T) {
	grads := [][]float64{
		{0.1, -0.2, 0.3}, {0.05, 0.1, -0.1}, {-0.2, 0.2, 0.0}, {0.4, -0.1, 0.05},
	}
	for _, devices := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("Devices=%d", devices), func(t *testing.T) {
			runOnce := func(pol FaultPolicy) ([]float64, *Context) {
				t.Helper()
				p := testProfile(SystemFLBooster)
				p.Devices = devices
				p.Faults = pol
				ctx, err := NewContext(p)
				if err != nil {
					t.Fatal(err)
				}
				fed := NewFederation(ctx)
				defer fed.Close()
				var agg []float64
				for round := 0; round < 2; round++ {
					if agg, err = fed.SecureAggregate(grads); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
				}
				return agg, ctx
			}

			clean, cleanCtx := runOnce(FaultPolicy{})
			// A member's second launch is the second client's encryption (it was
			// the first client's rⁿ kernel when a batch took three): the round is
			// under way, the device warm, and three clients are still to encrypt.
			killed, ctx := runOnce(FaultPolicy{
				Inject: gpu.FaultConfig{Seed: 1, KillAtLaunch: 2},
			})

			if len(killed) != len(clean) {
				t.Fatalf("aggregate length %d, want %d", len(killed), len(clean))
			}
			for i := range clean {
				if killed[i] != clean[i] {
					t.Fatalf("aggregate[%d] = %v after failover, want %v (bit-exact)", i, killed[i], clean[i])
				}
			}
			rep := ctx.FaultReport()
			if rep.Health != gpu.DeviceFailed {
				t.Fatalf("device health %s, want failed", rep.Health)
			}
			set := ctx.DevSet.Stats()
			if !rep.Checked.FellBack || set.HostShards == 0 || set.HostSim <= 0 {
				t.Fatalf("failover not recorded: %+v, set %+v", rep.Checked, set)
			}
			if rep.Injected.Kills == 0 || rep.LaunchFailures == 0 {
				t.Fatalf("fault counters empty: %+v", rep)
			}
			if rep.SimFaultTime < set.HostSim {
				t.Fatalf("degraded-mode time not charged to the modelled clock: fault time %v, host wall %v",
					rep.SimFaultTime, set.HostSim)
			}
			// Both contexts have drawn the same nonce streams, so one more
			// encryption — the host loop's on the dead fleet — is the healthy
			// device's, byte for byte.
			t.Run("PostFailoverCiphertexts", func(t *testing.T) {
				want, err := cleanCtx.EncryptGradients(grads[0])
				if err != nil {
					t.Fatal(err)
				}
				got, err := ctx.EncryptGradients(grads[0])
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("post-failover encryption gave %d ciphertexts, want %d", len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i].C.Bytes(), want[i].C.Bytes()) {
						t.Fatalf("post-failover ciphertext %d differs from the healthy device's", i)
					}
				}
			})

			// A device that silently corrupts results instead of dying: with every
			// item verified, the checked layer retries the bad batches and the
			// aggregate is still the healthy run's, bit for bit.
			corrupted, ctx := runOnce(FaultPolicy{
				Inject: gpu.FaultConfig{Seed: 7, CorruptProb: 0.1},
				Check:  ghe.CheckedConfig{MaxRetries: 8, VerifyFraction: 1},
			})
			if !sameBits(corrupted, clean) {
				t.Fatalf("aggregate %v under corruption retries, want %v (bit-exact)", corrupted, clean)
			}
			if rep := ctx.FaultReport(); rep.Checked.VerifyFailures == 0 {
				t.Fatalf("expected verification to catch injected corruption, got %+v", rep.Checked)
			}
		})
	}
}

// TestWeightedSumsSurviveDeviceFaults runs the vertical models' operator
// through the executor's whole discipline: a fleet that dies at the kernel's
// own launches fails over to the host loop, a fleet that corrupts lanes is
// caught by the term-by-term check and retried, and either way the sums are
// the healthy run's ciphertexts bit for bit, with the fault report showing
// what happened.
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
			cts, err := ctx.EncryptBroadcast([]float64{0.5, -0.25, 0.125, 0.75, -0.5, 0.3}, 1)
			if err != nil {
				t.Fatal(err)
			}
			var out []mpint.Nat
			for round := 0; round < 3; round++ {
				sums, err := ctx.BroadcastSums(cts, [][]mpint.Term{
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
		rep := ctx.FaultReport()
		if rep.Health != gpu.DeviceFailed || !rep.Checked.FellBack || ctx.DevSet.Stats().HostShards == 0 || rep.Injected.Kills == 0 {
			t.Fatalf("Devices=%d: failover not recorded: %+v, set %+v", devices, rep, ctx.DevSet.Stats())
		}
		corrupted, ctx := runOnce(FaultPolicy{
			Inject: gpu.FaultConfig{Seed: 3, CorruptProb: 0.4},
			Check:  ghe.CheckedConfig{MaxRetries: 12, VerifyFraction: 1},
		})
		same("under corruption", corrupted, clean)
		if rep := ctx.FaultReport(); rep.Checked.VerifyFailures == 0 || rep.Checked.Retries == 0 {
			t.Fatalf("Devices=%d: expected verification to catch injected corruption, got %+v", devices, rep.Checked)
		}
	}
}

// TestFaultReportCPUProfile: CPU profiles report a healthy zero record.
func TestFaultReportCPUProfile(t *testing.T) {
	ctx, err := NewContext(testProfile(SystemFATE))
	if err != nil {
		t.Fatal(err)
	}
	rep := ctx.FaultReport()
	if rep.Health != gpu.DeviceHealthy || rep.Checked != (ghe.CheckedStats{}) {
		t.Fatalf("CPU profile fault report not zero: %+v", rep)
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
