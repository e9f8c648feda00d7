package gpu

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"flbooster/internal/mpint"
)

// Device fault model (DESIGN.md §7). Real accelerator deployments treat
// kernel failures as routine events; this file gives the simulated device
// the same fault surface so the layers above can be tested against it:
// a seeded injector producing four transient fault kinds plus permanent
// device death, a typed launch error, and a health state that latches Failed
// when the device dies or its executor retires it (Device.Retire).

// FaultKind classifies a device fault.
type FaultKind string

// The fault kinds a launch can report.
const (
	// FaultAbort is a kernel that terminates without producing results.
	FaultAbort FaultKind = "abort"
	// FaultCorrupt is a kernel that completes but silently corrupts one
	// item's result. The device reports success; only result verification
	// (ghe.CheckedEngine) detects it.
	FaultCorrupt FaultKind = "corrupt"
	// FaultStall is a kernel that hangs until the device's watchdog gives it
	// up: decided before the body runs, it costs WatchdogWindow of modelled
	// time.
	FaultStall FaultKind = "stall"
	// FaultOOM is a launch whose working set the device cannot hold: like an
	// abort, it fails before the kernel runs.
	FaultOOM FaultKind = "oom"
	// FaultDeviceFailed reports a launch refused because the device health
	// machine has reached the Failed state.
	FaultDeviceFailed FaultKind = "device-failed"
)

// WatchdogWindow is the modelled device time a stalled launch costs: the
// watchdog deadline the device waits out before it gives the kernel up. It is
// a constant of the model, charged to Stats.SimFaultTime, never a host timer,
// so a stall is a function of the seed alone (DESIGN.md §7).
const WatchdogWindow = 10 * time.Millisecond

// KernelError is the typed failure of one kernel launch.
type KernelError struct {
	// Kind classifies the failure.
	Kind FaultKind
	// Kernel is the launch's diagnostic name.
	Kernel string
	// Attempt is the device-wide 1-based launch ordinal that failed.
	Attempt int64
}

// Error implements error.
func (e *KernelError) Error() string {
	return fmt.Sprintf("gpu: kernel %q launch %d failed: %s", e.Kernel, e.Attempt, e.Kind)
}

// IsKernelError reports whether err is (or wraps) a typed device fault — the
// retryable/re-queueable class, as opposed to a caller bug.
func IsKernelError(err error) bool {
	var ke *KernelError
	return errors.As(err, &ke)
}

// HealthState is the device health machine's state.
type HealthState string

// Health machine states: Healthy → Failed, entered at the device's kill
// launch (FaultConfig.KillAtLaunch) or when its executor retires it
// (Device.Retire). Failed is terminal — callers fail over to the device's
// peers, or to host execution with none left (ghe.CheckedEngine).
const (
	DeviceHealthy HealthState = "healthy"
	DeviceFailed  HealthState = "failed"
)

// FaultConfig parameterizes a FaultInjector. All probabilistic decisions
// come from one stream seeded by Seed and drawn in launch order with a
// fixed number of draws per launch, so a fixed seed and a fixed launch
// sequence reproduce the exact same fault pattern (the determinism contract
// mirrors flnet.ChaosConfig).
type FaultConfig struct {
	// Seed drives every probabilistic decision.
	Seed uint64
	// AbortProb is the probability a launch aborts without results.
	AbortProb float64
	// CorruptProb is the probability a launch silently corrupts one item's
	// result through the kernel's Poison callback.
	CorruptProb float64
	// StallProb is the probability a launch hangs until the watchdog gives
	// it up, WatchdogWindow later.
	StallProb float64
	// OOMProb is the probability a launch fails for want of device memory.
	OOMProb float64
	// KillAtLaunch, when positive, permanently kills the device at that
	// 1-based launch ordinal: the launch aborts and latches the device
	// Failed, so it is the last the device attempts. This is the "device
	// dies mid-round" scenario of the resilience experiment.
	KillAtLaunch int64
}

// ErrFaultConfig is what FaultConfig.Validate rejects a config with.
var ErrFaultConfig = errors.New("gpu: fault injection setting out of range")

// Validate rejects, with ErrFaultConfig, a fault probability that is not a
// finite number in [0, 1] and a negative kill ordinal.
func (c FaultConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"abort", c.AbortProb}, {"corrupt", c.CorruptProb}, {"stall", c.StallProb}, {"OOM", c.OOMProb}} {
		if !(p.v >= 0 && p.v <= 1) { // NaN too
			return fmt.Errorf("%w: %s probability %v outside [0, 1]", ErrFaultConfig, p.name, p.v)
		}
	}
	if c.KillAtLaunch < 0 {
		return fmt.Errorf("%w: negative kill ordinal %d", ErrFaultConfig, c.KillAtLaunch)
	}
	return nil
}

// Enabled reports whether the config injects any fault at all.
func (c FaultConfig) Enabled() bool {
	return c.AbortProb > 0 || c.CorruptProb > 0 || c.StallProb > 0 || c.OOMProb > 0 ||
		c.KillAtLaunch > 0
}

// FaultInjector decides, per launch, whether and how the device misbehaves.
// Attach one to a device with Device.SetFaultInjector.
type FaultInjector struct {
	cfg FaultConfig

	mu       sync.Mutex
	rng      *mpint.RNG
	launches int64 // launches decided so far: the ordinal KillAtLaunch counts
}

// NewFaultInjector builds an injector from cfg.
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	return &FaultInjector{cfg: cfg, rng: mpint.NewRNG(cfg.Seed)}
}

// decide draws this launch's fault. Every launch consumes exactly five
// draws in a fixed order regardless of which faults are enabled, so the
// fault pattern is a pure function of (seed, launch index). poisonItem is
// the item index to corrupt when kind is FaultCorrupt, -1 otherwise; killed
// reports the abort of the kill launch.
func (fi *FaultInjector) decide(items int) (kind FaultKind, poisonItem int, killed bool) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.launches++
	abort := fi.rng.Float64() < fi.cfg.AbortProb
	corrupt := fi.rng.Float64() < fi.cfg.CorruptProb
	stall := fi.rng.Float64() < fi.cfg.StallProb
	oom := fi.rng.Float64() < fi.cfg.OOMProb
	itemDraw := fi.rng.Float64()

	if fi.cfg.KillAtLaunch > 0 && fi.launches >= fi.cfg.KillAtLaunch {
		return FaultAbort, -1, true
	}
	switch {
	case abort:
		return FaultAbort, -1, false
	case corrupt:
		item := int(itemDraw * float64(items))
		if item >= items {
			item = items - 1
		}
		return FaultCorrupt, item, false
	case stall:
		return FaultStall, -1, false
	case oom:
		return FaultOOM, -1, false
	}
	return "", -1, false
}
