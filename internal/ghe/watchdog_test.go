package ghe

import (
	"slices"
	"testing"
	"time"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// TestWatchdogStragglersNeverWriteIntoALaterCall drives the frames under a
// launch watchdog, where an abandoned attempt's lanes keep running behind the
// retry and write their results whenever they finish: ten rounds of a slow
// frame op — 2,048-bit exponentiations, every device attempt abandoned
// mid-lane at a 1 ms deadline, the host loop serving the result — each followed
// by eight quick ones staged while the slow op's stragglers are still running.
// Every result is held to the host's. Each abandoned attempt wrote a vector of
// its own (member.serve), so under the race detector this is also the check
// that no straggler writes an element its retry, the host loop or the caller
// touches. (That a straggler's frame is never the quick op's is
// TestFramesAreNotPooledUnderAWatchdog's to pin; a stray write has to land in a
// 100 µs window to show here.)
func TestWatchdogStragglersNeverWriteIntoALaterCall(t *testing.T) {
	cfg := gpu.SmallTestDevice()
	cfg.KernelDeadline = time.Millisecond
	set, err := gpu.NewDeviceSet(cfg, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	set.Device(0).SetHealthPolicy(gpu.HealthPolicy{DegradeAfter: 1, FailAfter: 1 << 30})
	c, err := NewCheckedEngine(set, CheckedConfig{MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := mpint.NewRNG(0x57A6)
	n := r.RandBits(2048)
	n[0] |= 1
	m := mpint.NewMont(n)
	const w = 16
	a, b := randVec(r, w, n), randVec(r, w, n)
	host := NewCPUEngine()
	wantPow, _ := host.ModExpVarVec(a, b, m)
	wantMul, _ := host.ModMulVec(a, b, m)
	// A backend's call: the operands staged in the frame beside the results.
	staged := func(op func(f *Frame, av, bv []mpint.Nat) ([]mpint.Nat, error)) []mpint.Nat {
		f := c.Frame(3 * w)
		defer f.Release()
		av, bv := f.Vec(w), f.Vec(w)
		copy(av, a)
		copy(bv, b)
		out, err := op(f, av, bv)
		if err != nil {
			t.Fatal(err)
		}
		return slices.Clone(out)
	}
	for round := 0; round < 10; round++ {
		sameVec(t, "the slow op", staged(func(f *Frame, av, bv []mpint.Nat) ([]mpint.Nat, error) {
			return f.ModExpVarVec(av, bv, m)
		}), wantPow)
		for quick := 0; quick < 8; quick++ {
			sameVec(t, "a quick op behind the stragglers", staged(func(f *Frame, av, bv []mpint.Nat) ([]mpint.Nat, error) {
				return f.ModMulVec(av, bv, m)
			}), wantMul)
		}
	}
	if trips := set.Device(0).Stats().WatchdogTrips; trips < 10 {
		t.Fatalf("only %d launches were abandoned: the slow op no longer outlasts the watchdog", trips)
	}
}
