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

// faultRun drives 200 launches against a fresh device with injection enabled
// and returns the device counters, host wall time zeroed.
func faultRun(t *testing.T, seed uint64) Stats {
	t.Helper()
	d := MustNew(SmallTestDevice(), true)
	// No kill and no executor to retire it: the device stays healthy for the
	// whole run, so every launch consults the injector.
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
	st := d.Stats()
	st.WallKernelTime = 0
	return st
}

// TestFaultInjectionDeterministic is the acceptance criterion: the same seed
// must produce the identical fault pattern across two runs, and with it every
// device counter but host wall time — the stalls and the watchdog windows
// they cost included.
func TestFaultInjectionDeterministic(t *testing.T) {
	ds1, ds2 := faultRun(t, 42), faultRun(t, 42)
	if ds1 != ds2 {
		t.Fatalf("device counters diverged for one seed:\n%+v\n%+v", ds1, ds2)
	}
	if ds1.FaultAborts == 0 || ds1.FaultOOMs == 0 || ds1.LaunchFailures != ds1.FaultAborts+ds1.FaultStalls+ds1.FaultOOMs {
		t.Fatalf("expected injected aborts, stalls and OOMs, and no other failure: %+v", ds1)
	}
	if ds1.FaultStalls == 0 || ds1.SimFaultTime != time.Duration(ds1.FaultStalls)*WatchdogWindow {
		t.Fatalf("want every stall one watchdog window: %+v", ds1)
	}
	if ds3 := faultRun(t, 43); ds1 == ds3 {
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
	if st.LaunchFailures != 1 || st.FaultStalls != 1 || st.KernelLaunches != 0 {
		t.Fatalf("watchdog accounting wrong: %+v", st)
	}
	if st.SimFaultTime != WatchdogWindow {
		t.Fatalf("fault clock charged %v for one stall, want %v", st.SimFaultTime, WatchdogWindow)
	}
}

// TestOOMFaultFailsLaunch: an injected OOM fails the launch before its body
// runs, with a typed FaultOOM, and is counted as an abort is: it leaves the
// device healthy however often it repeats — only a kill or the executor
// retires a device.
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
	if st.LaunchFailures != 1 || st.FaultOOMs != 1 || st.KernelLaunches != 0 || st.Health != DeviceHealthy {
		t.Fatalf("oom accounting wrong: %+v", st)
	}
	for i := 0; i < 3; i++ {
		d.Launch(k.over(func(int) {}))
	}
	if st := d.Stats(); st.FaultOOMs != 4 || st.Health != DeviceHealthy {
		t.Fatalf("after four OOMs: %d counted and %s, want 4 and healthy", st.FaultOOMs, st.Health)
	}
}

// TestCorruptFaultPoisonsSilently: with a Poison callback the launch succeeds
// and one item is perturbed; without one the draw fails the launch and is
// counted once, as the abort it is observed as.
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
	// launch fails visibly instead, as an abort.
	k2 := Kernel{Name: "unpoisonable", Items: 4, RegsPerThread: 16}
	_, err := d.Launch(k2.over(func(int) {}))
	var kerr *KernelError
	if !errors.As(err, &kerr) || kerr.Kind != FaultAbort {
		t.Fatalf("want an abort KernelError, got %v", err)
	}
	if st := d.Stats(); st.FaultAborts != 1 || st.FaultCorruptions != 0 {
		t.Fatalf("unpoisonable corrupt draw counted as %d aborts and %d corruptions, want 1 and 0", st.FaultAborts, st.FaultCorruptions)
	}
}

// TestHealthMachine: a device leaves Healthy only for Failed, and only by
// Retire or at its kill launch — reported failures are counted, never
// latched. Failed refuses every launch, never recovers and survives a stats
// reset.
func TestHealthMachine(t *testing.T) {
	d := MustNew(SmallTestDevice(), true)
	if d.Health() != DeviceHealthy {
		t.Fatalf("new device not healthy: %s", d.Health())
	}
	for i := 0; i < 5; i++ {
		d.ReportFailure(FaultCorrupt)
	}
	if st := d.Stats(); st.Health != DeviceHealthy || st.FaultCorruptions != 5 {
		t.Fatalf("after five reported failures: %s with %d counted, want healthy with 5", st.Health, st.FaultCorruptions)
	}
	k, fn := noopKernel(4)
	d.Retire()
	if d.Health() != DeviceFailed {
		t.Fatalf("after Retire: %s, want failed", d.Health())
	}
	// A Failed device refuses launches with a typed error…
	_, err := d.Launch(k.over(fn))
	var kerr *KernelError
	if !errors.As(err, &kerr) || kerr.Kind != FaultDeviceFailed {
		t.Fatalf("failed device must refuse launches, got %v", err)
	}
	// …never recovers…
	d.ReportFailure(FaultAbort) // still counted, state unchanged
	if d.Health() != DeviceFailed {
		t.Fatalf("failed device changed state: %s", d.Health())
	}
	// …and survives a stats reset.
	d.ResetStats()
	if d.Health() != DeviceFailed {
		t.Fatalf("ResetStats healed a failed device: %s", d.Health())
	}

	// The kill launch aborts and latches Failed at once: the launch after it
	// is refused without reaching the injector.
	killed := MustNew(SmallTestDevice(), true)
	killed.SetFaultInjector(NewFaultInjector(FaultConfig{Seed: 1, KillAtLaunch: 2}))
	for launch, want := range []FaultKind{"", FaultAbort, FaultDeviceFailed} {
		_, err := killed.Launch(k.over(fn))
		got := FaultKind("")
		if errors.As(err, &kerr) {
			got = kerr.Kind
		} else if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("launch %d failed with %q, want %q", launch+1, got, want)
		}
	}
	if st := killed.Stats(); st.Health != DeviceFailed || st.KernelLaunches != 1 || st.FaultAborts != 1 || st.LaunchFailures != 1 {
		t.Fatalf("killed device: %+v, want failed after 1 launch and 1 abort", st)
	}
}

func TestConfigValidateFaultFields(t *testing.T) {
	cfg := SmallTestDevice()
	cfg.HostWorkers = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative HostWorkers must not validate")
	}
}
