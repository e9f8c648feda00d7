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
// device death, a typed launch error, and a health state machine driven by
// consecutive launch failures.

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

// Health machine states: Healthy → Degraded → Failed. Failed is terminal —
// callers fail over to host execution (ghe.CheckedEngine).
const (
	DeviceHealthy  HealthState = "healthy"
	DeviceDegraded HealthState = "degraded"
	DeviceFailed   HealthState = "failed"
)

// HealthPolicy sets the consecutive-failure thresholds of the health
// machine. A successful launch resets the counter and recovers a Degraded
// device; a Failed device never recovers.
type HealthPolicy struct {
	// DegradeAfter is the consecutive-failure count that enters Degraded.
	DegradeAfter int
	// FailAfter is the consecutive-failure count that enters Failed.
	FailAfter int
}

// DefaultHealthPolicy degrades on the first failure and fails the device on
// the third consecutive one — tight enough that a dead device is latched
// within one retry budget, loose enough that a single transient fault never
// takes the device out.
func DefaultHealthPolicy() HealthPolicy { return HealthPolicy{DegradeAfter: 1, FailAfter: 3} }

// withDefaults fills zero thresholds.
func (p HealthPolicy) withDefaults() HealthPolicy {
	d := DefaultHealthPolicy()
	if p.DegradeAfter <= 0 {
		p.DegradeAfter = d.DegradeAfter
	}
	if p.FailAfter <= 0 {
		p.FailAfter = d.FailAfter
	}
	if p.FailAfter < p.DegradeAfter {
		p.FailAfter = p.DegradeAfter
	}
	return p
}

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
	// KillAtLaunch, when positive, permanently kills the device starting at
	// that 1-based launch ordinal: every launch from then on aborts, which
	// drives the health machine to Failed. This is the "device dies
	// mid-round" scenario of the resilience experiment.
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

// FaultStats counts the faults an injector has decided, by kind.
type FaultStats struct {
	Launches    int64 // launches the injector saw
	Aborts      int64
	Corruptions int64
	Stalls      int64
	OOMs        int64
	Kills       int64 // launches refused because the kill ordinal passed
}

// Total is the number of faulted launches.
func (s FaultStats) Total() int64 {
	return s.Aborts + s.Corruptions + s.Stalls + s.OOMs + s.Kills
}

// FaultInjector decides, per launch, whether and how the device misbehaves.
// Attach one to a device with Device.SetFaultInjector.
type FaultInjector struct {
	cfg FaultConfig

	mu    sync.Mutex
	rng   *mpint.RNG
	stats FaultStats
}

// NewFaultInjector builds an injector from cfg.
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	return &FaultInjector{cfg: cfg, rng: mpint.NewRNG(cfg.Seed)}
}

// Stats returns a snapshot of the decided-fault counters.
func (fi *FaultInjector) Stats() FaultStats {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.stats
}

// decide draws this launch's fault. Every launch consumes exactly five
// draws in a fixed order regardless of which faults are enabled, so the
// fault pattern is a pure function of (seed, launch index). poisonItem is
// the item index to corrupt when kind is FaultCorrupt, -1 otherwise.
func (fi *FaultInjector) decide(items int) (kind FaultKind, poisonItem int) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.stats.Launches++
	abort := fi.rng.Float64() < fi.cfg.AbortProb
	corrupt := fi.rng.Float64() < fi.cfg.CorruptProb
	stall := fi.rng.Float64() < fi.cfg.StallProb
	oom := fi.rng.Float64() < fi.cfg.OOMProb
	itemDraw := fi.rng.Float64()

	if fi.cfg.KillAtLaunch > 0 && fi.stats.Launches >= fi.cfg.KillAtLaunch {
		fi.stats.Kills++
		return FaultAbort, -1
	}
	switch {
	case abort:
		fi.stats.Aborts++
		return FaultAbort, -1
	case corrupt:
		fi.stats.Corruptions++
		item := int(itemDraw * float64(items))
		if item >= items {
			item = items - 1
		}
		return FaultCorrupt, item
	case stall:
		fi.stats.Stalls++
		return FaultStall, -1
	case oom:
		fi.stats.OOMs++
		return FaultOOM, -1
	}
	return "", -1
}
