package gpu

import (
	"errors"
	"testing"
	"time"
)

// poisonable is a test body whose results an injected corruption can reach.
type poisonable struct {
	LaneFunc
	poison func(int)
}

func (p poisonable) Poison(item int) { p.poison(item) }

// over is k with fn for its lanes, keeping the poison hook k's body has.
func (k Kernel) over(fn func(int)) Kernel {
	if p, ok := k.Body.(poisonable); ok {
		p.LaneFunc = fn
		k.Body = p
	} else {
		k.Body = LaneFunc(fn)
	}
	return k
}

// noopKernel is a small poisonable launch for fault tests.
func noopKernel(items int) (Kernel, func(int)) {
	out := make([]int, items)
	k := Kernel{
		Name:          "test_kernel",
		Items:         items,
		RegsPerThread: 16,
		WordOps:       4,
		Body:          poisonable{poison: func(item int) { out[item]++ }},
	}
	return k, func(i int) { out[i] = i }
}

// faultRun drives `launches` launches against a fresh device with injection
// enabled and returns the injector and device counters.
func faultRun(t *testing.T, seed uint64) (FaultStats, Stats) {
	t.Helper()
	d := MustNew(SmallTestDevice(), true)
	// Keep the device alive for the whole run so every launch consults the
	// injector; health transitions are exercised separately below.
	d.SetHealthPolicy(HealthPolicy{DegradeAfter: 1, FailAfter: 1 << 30})
	d.SetFaultInjector(NewFaultInjector(FaultConfig{
		Seed:        seed,
		AbortProb:   0.15,
		CorruptProb: 0.15,
		StallProb:   0.15,
		OOMProb:     0.15,
	}))
	for i := 0; i < 200; i++ {
		k, fn := noopKernel(8)
		_, _ = d.Launch(k.over(fn))
	}
	return d.Injector().Stats(), d.Stats()
}

// TestFaultInjectionDeterministic is the acceptance criterion: the same seed
// must produce the identical fault pattern across two runs, and with it every
// device counter but host wall time — the stalls' watchdog trips and the
// modelled time they cost included.
func TestFaultInjectionDeterministic(t *testing.T) {
	fi1, ds1 := faultRun(t, 42)
	fi2, ds2 := faultRun(t, 42)
	if fi1 != fi2 {
		t.Fatalf("injector stats diverged for one seed:\n%+v\n%+v", fi1, fi2)
	}
	if fi1.Total() == 0 {
		t.Fatalf("expected injected faults, got none: %+v", fi1)
	}
	if ds1.WallKernelTime, ds2.WallKernelTime = 0, 0; ds1 != ds2 {
		t.Fatalf("device counters diverged for one seed:\n%+v\n%+v", ds1, ds2)
	}
	if ds1.WatchdogTrips == 0 || ds1.WatchdogTrips != ds1.FaultStalls ||
		ds1.SimFaultTime != time.Duration(ds1.FaultStalls)*WatchdogWindow {
		t.Fatalf("want every stall a watchdog trip of one window: %+v", ds1)
	}
	fi3, _ := faultRun(t, 43)
	if fi1 == fi3 {
		t.Fatal("different seeds produced the identical fault pattern")
	}
}

func TestAbortFault(t *testing.T) {
	d := MustNew(SmallTestDevice(), true)
	d.SetFaultInjector(NewFaultInjector(FaultConfig{Seed: 1, AbortProb: 1}))
	k, fn := noopKernel(4)
	_, err := d.Launch(k.over(fn))
	var kerr *KernelError
	if !errors.As(err, &kerr) || kerr.Kind != FaultAbort {
		t.Fatalf("want abort KernelError, got %v", err)
	}
	if kerr.Kernel != "test_kernel" || kerr.Attempt != 1 {
		t.Fatalf("bad error metadata: %+v", kerr)
	}
	st := d.Stats()
	if st.LaunchFailures != 1 || st.FaultAborts != 1 || st.KernelLaunches != 0 {
		t.Fatalf("abort accounting wrong: %+v", st)
	}
}

// TestWatchdogCancelsInjectedStall injects a stall: the launch comes back as a
// stall KernelError before its body runs, having tripped the watchdog once and
// charged exactly its window to the fault clock.
func TestWatchdogCancelsInjectedStall(t *testing.T) {
	d := MustNew(SmallTestDevice(), true)
	d.SetFaultInjector(NewFaultInjector(FaultConfig{Seed: 1, StallProb: 1}))
	ran := false
	k, _ := noopKernel(4)
	_, err := d.Launch(k.over(func(int) { ran = true }))
	var kerr *KernelError
	if !errors.As(err, &kerr) || kerr.Kind != FaultStall || ran {
		t.Fatalf("want stall KernelError before the body runs, got %v (ran %v)", err, ran)
	}
	st := d.Stats()
	if st.WatchdogTrips != 1 || st.FaultStalls != 1 || st.KernelLaunches != 0 {
		t.Fatalf("watchdog accounting wrong: %+v", st)
	}
	if st.SimFaultTime != WatchdogWindow {
		t.Fatalf("fault clock charged %v for one stall, want %v", st.SimFaultTime, WatchdogWindow)
	}
}

// TestOOMFaultFailsLaunch: an injected OOM fails the launch before its body
// runs, with a typed FaultOOM, and drives the health machine as an abort does.
func TestOOMFaultFailsLaunch(t *testing.T) {
	d := MustNew(SmallTestDevice(), true)
	d.SetFaultInjector(NewFaultInjector(FaultConfig{Seed: 1, OOMProb: 1}))
	ran := false
	k, _ := noopKernel(4)
	_, err := d.Launch(k.over(func(int) { ran = true }))
	var kerr *KernelError
	if !errors.As(err, &kerr) || kerr.Kind != FaultOOM {
		t.Fatalf("want oom KernelError, got %v", err)
	}
	if kerr.Kernel != "test_kernel" || kerr.Attempt != 1 || ran {
		t.Fatalf("bad error metadata or the body ran: %+v, ran %v", kerr, ran)
	}
	st := d.Stats()
	if st.LaunchFailures != 1 || st.FaultOOMs != 1 || st.KernelLaunches != 0 || st.Health != DeviceDegraded {
		t.Fatalf("oom accounting wrong: %+v", st)
	}
	// Three in a row latch Failed, as three aborts do.
	for i := 0; i < 2; i++ {
		d.Launch(k.over(func(int) {}))
	}
	if d.Health() != DeviceFailed {
		t.Fatalf("after three OOMs: %s, want failed", d.Health())
	}
}

// TestCorruptFaultPoisonsSilently: with a Poison callback the launch succeeds
// and one item is perturbed; without one the corruption is a visible fault.
func TestCorruptFaultPoisonsSilently(t *testing.T) {
	d := MustNew(SmallTestDevice(), true)
	d.SetFaultInjector(NewFaultInjector(FaultConfig{Seed: 1, CorruptProb: 1}))
	out := make([]int, 8)
	k := Kernel{Name: "poisonable", Items: len(out), RegsPerThread: 16,
		Body: poisonable{poison: func(item int) { out[item] = -1 }}}
	if _, err := d.Launch(k.over(func(i int) { out[i] = i })); err != nil {
		t.Fatalf("corrupt fault must report success, got %v", err)
	}
	poisoned := 0
	for i, v := range out {
		if v == -1 {
			poisoned++
		} else if v != i {
			t.Fatalf("item %d not executed: %d", i, v)
		}
	}
	if poisoned != 1 {
		t.Fatalf("want exactly one poisoned item, got %d", poisoned)
	}
	st := d.Stats()
	if st.KernelLaunches != 1 || st.LaunchFailures != 0 || st.Health != DeviceHealthy {
		t.Fatalf("silent corruption must not be observed by the device: %+v", st)
	}

	// No Poisoner → the corruption cannot be modelled silently and the
	// launch fails visibly instead.
	k2 := Kernel{Name: "unpoisonable", Items: 4, RegsPerThread: 16}
	_, err := d.Launch(k2.over(func(int) {}))
	var kerr *KernelError
	if !errors.As(err, &kerr) || kerr.Kind != FaultCorrupt {
		t.Fatalf("want visible corrupt KernelError, got %v", err)
	}
}

func TestHealthMachine(t *testing.T) {
	d := MustNew(SmallTestDevice(), true)
	if d.Health() != DeviceHealthy {
		t.Fatalf("new device not healthy: %s", d.Health())
	}
	// One reported failure degrades (DefaultHealthPolicy.DegradeAfter = 1).
	d.ReportFailure("k", FaultCorrupt)
	if d.Health() != DeviceDegraded {
		t.Fatalf("after one failure: %s, want degraded", d.Health())
	}
	// A successful launch recovers a Degraded device.
	k, fn := noopKernel(4)
	if _, err := d.Launch(k.over(fn)); err != nil {
		t.Fatal(err)
	}
	if d.Health() != DeviceHealthy {
		t.Fatalf("success did not recover device: %s", d.Health())
	}
	// Three consecutive failures latch Failed.
	for i := 0; i < 3; i++ {
		d.ReportFailure("k", FaultAbort)
	}
	if d.Health() != DeviceFailed {
		t.Fatalf("after three failures: %s, want failed", d.Health())
	}
	// A Failed device refuses launches with a typed error…
	_, err := d.Launch(k.over(fn))
	var kerr *KernelError
	if !errors.As(err, &kerr) || kerr.Kind != FaultDeviceFailed {
		t.Fatalf("failed device must refuse launches, got %v", err)
	}
	// …never recovers…
	d.ReportFailure("k", FaultAbort) // still counted, state unchanged
	if d.Health() != DeviceFailed {
		t.Fatalf("failed device changed state: %s", d.Health())
	}
	// …and survives a stats reset.
	d.ResetStats()
	if d.Health() != DeviceFailed {
		t.Fatalf("ResetStats healed a failed device: %s", d.Health())
	}
}

func TestConfigValidateFaultFields(t *testing.T) {
	cfg := SmallTestDevice()
	cfg.HostWorkers = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative HostWorkers must not validate")
	}
}
