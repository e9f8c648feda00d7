package gpu

import (
	"errors"
	"sync/atomic"
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
		OOMProb:     0.15,
	}))
	for i := 0; i < 200; i++ {
		k, fn := noopKernel(8)
		_, _ = d.Launch(k.over(fn))
	}
	return d.Injector().Stats(), d.Stats()
}

// TestFaultInjectionDeterministic is the acceptance criterion: the same seed
// must produce the identical fault pattern across two runs.
func TestFaultInjectionDeterministic(t *testing.T) {
	fi1, ds1 := faultRun(t, 42)
	fi2, ds2 := faultRun(t, 42)
	if fi1 != fi2 {
		t.Fatalf("injector stats diverged for one seed:\n%+v\n%+v", fi1, fi2)
	}
	if fi1.Total() == 0 {
		t.Fatalf("expected injected faults, got none: %+v", fi1)
	}
	if ds1.LaunchFailures != ds2.LaunchFailures ||
		ds1.FaultAborts != ds2.FaultAborts ||
		ds1.FaultOOMs != ds2.FaultOOMs ||
		ds1.KernelLaunches != ds2.KernelLaunches {
		t.Fatalf("device fault counters diverged for one seed:\n%+v\n%+v", ds1, ds2)
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

// TestWatchdogCancelsInjectedStall arms the watchdog and injects a stall: the
// launch must come back as a stall KernelError within the deadline, charging
// the watchdog window to the fault clock.
func TestWatchdogCancelsInjectedStall(t *testing.T) {
	cfg := SmallTestDevice()
	cfg.KernelDeadline = 10 * time.Millisecond
	d := MustNew(cfg, true)
	d.SetFaultInjector(NewFaultInjector(FaultConfig{Seed: 1, StallProb: 1, StallFor: time.Minute}))
	k, fn := noopKernel(4)
	_, err := d.Launch(k.over(fn))
	var kerr *KernelError
	if !errors.As(err, &kerr) || kerr.Kind != FaultStall {
		t.Fatalf("want stall KernelError, got %v", err)
	}
	st := d.Stats()
	if st.WatchdogTrips != 1 || st.FaultStalls != 1 {
		t.Fatalf("watchdog accounting wrong: %+v", st)
	}
	if st.SimFaultTime < cfg.KernelDeadline {
		t.Fatalf("watchdog window not charged: %v < %v", st.SimFaultTime, cfg.KernelDeadline)
	}
}

// TestWatchdogCancelsHungKernel catches a genuinely hung kernel body (no
// injector involved).
func TestWatchdogCancelsHungKernel(t *testing.T) {
	cfg := SmallTestDevice()
	cfg.KernelDeadline = 10 * time.Millisecond
	d := MustNew(cfg, true)
	release := make(chan struct{})
	defer close(release)
	k := Kernel{Name: "hung", Items: 1, RegsPerThread: 16}
	_, err := d.Launch(k.over(func(int) { <-release }))
	var kerr *KernelError
	if !errors.As(err, &kerr) || kerr.Kind != FaultStall {
		t.Fatalf("want stall KernelError for hung kernel, got %v", err)
	}
	if d.Stats().WatchdogTrips != 1 {
		t.Fatalf("watchdog trip not recorded: %+v", d.Stats())
	}
}

// TestWatchdogCancelStopsKernelBody: a genuinely slow kernel tripped by the
// watchdog must stop executing items at the next item boundary, not run to
// completion in a leaked goroutine behind the caller's retry.
func TestWatchdogCancelStopsKernelBody(t *testing.T) {
	cfg := SmallTestDevice()
	cfg.KernelDeadline = 5 * time.Millisecond
	d := MustNew(cfg, true)
	const items = 512
	var executed atomic.Int64
	k := Kernel{Name: "slow", Items: items, RegsPerThread: 16}
	_, err := d.Launch(k.over(func(int) {
		executed.Add(1)
		time.Sleep(time.Millisecond)
	}))
	var kerr *KernelError
	if !errors.As(err, &kerr) || kerr.Kind != FaultStall {
		t.Fatalf("want stall KernelError for slow kernel, got %v", err)
	}
	// Wait for the cancelled body to settle, then confirm it stopped short.
	prev := executed.Load()
	for {
		time.Sleep(20 * time.Millisecond)
		cur := executed.Load()
		if cur == prev {
			break
		}
		prev = cur
	}
	if prev >= items {
		t.Fatalf("cancelled launch still executed all %d items", items)
	}
}

// TestStallWithoutWatchdog: a stall with no deadline armed is merely slow —
// the launch completes and the stalled goroutine is reclaimed via StallFor.
func TestStallWithoutWatchdog(t *testing.T) {
	d := MustNew(SmallTestDevice(), true)
	d.SetFaultInjector(NewFaultInjector(FaultConfig{Seed: 1, StallProb: 1, StallFor: 5 * time.Millisecond}))
	k, fn := noopKernel(4)
	if _, err := d.Launch(k.over(fn)); err != nil {
		t.Fatalf("stall without watchdog should complete, got %v", err)
	}
	if st := d.Stats(); st.KernelLaunches != 1 || st.WatchdogTrips != 0 {
		t.Fatalf("stall-without-watchdog accounting wrong: %+v", st)
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
	cfg.KernelDeadline = -time.Second
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative KernelDeadline must not validate")
	}
	cfg = SmallTestDevice()
	cfg.HostWorkers = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative HostWorkers must not validate")
	}
}

// TestStragglersNeverSeeARecycledLaunchState: a launch the watchdog gives up
// on returns with its workers still holding the launch state, so the state may
// go back to the pool only when the last of them lets go. 200 launches are
// abandoned on a device with a 1 ms watchdog — 100 under an injected stall,
// whose workers wake when the launch is cancelled, 100 over lanes that hang
// until the test releases them — and 200 clean launches then run on a second
// device (the pool is shared; no watchdog, so a loaded box cannot trip one),
// the hung lanes released halfway through. Were an abandoned launch's state
// pooled by its launcher, a clean launch would take it while stragglers still
// hold it: they would run the clean launch's items a second time and count
// its workers down early, and the race detector would see both.
func TestStragglersNeverSeeARecycledLaunchState(t *testing.T) {
	cfg := SmallTestDevice()
	clean := MustNew(cfg, true)
	cfg.KernelDeadline = time.Millisecond
	armed := MustNew(cfg, true)
	armed.SetHealthPolicy(HealthPolicy{DegradeAfter: 1 << 20, FailAfter: 1 << 20})
	release := make(chan struct{})
	hung := Kernel{Name: "hung", Items: cfg.HostWorkers, RegsPerThread: 16, WordOps: 4}.over(func(int) { <-release })
	abandon := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			var kerr *KernelError
			if _, err := armed.Launch(hung); !errors.As(err, &kerr) || kerr.Kind != FaultStall {
				t.Fatalf("abandoned launch %d: want a stall KernelError, got %v", i, err)
			}
		}
	}
	armed.SetFaultInjector(NewFaultInjector(FaultConfig{Seed: 1, StallProb: 1, StallFor: time.Minute}))
	abandon(100)
	armed.SetFaultInjector(nil)
	abandon(100)

	const items = 64
	var ran [items]atomic.Int32
	k := Kernel{Name: "clean", Items: items, RegsPerThread: 16, WordOps: 4}.over(func(i int) { ran[i].Add(1) })
	for launch := int32(1); launch <= 200; launch++ {
		if launch == 100 {
			close(release)
		}
		if _, err := clean.Launch(k); err != nil {
			t.Fatal(err)
		}
		for i := range ran {
			if got := ran[i].Load(); got != launch {
				t.Fatalf("clean launch %d returned with item %d run %d times", launch, i, got)
			}
		}
	}
}
