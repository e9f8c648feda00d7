package ghe

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
	"flbooster/internal/obs"
)

// verifyPrime is the host-side verification modulus: device results are
// spot-checked by recomputing a sampled element on the host and comparing
// both values reduced mod this small prime. An injected single-item
// perturbation changes the residue with overwhelming probability, while the
// check itself stays a two-word reduction. Largest 32-bit prime.
const verifyPrime = 4294967291

// CheckedConfig parameterizes a CheckedEngine. The zero value gets sane
// defaults: 3 retries, 1ms base backoff capped at 64ms, verification off.
type CheckedConfig struct {
	// MaxRetries bounds re-executions of one vector op after device faults
	// or verification misses. Zero means the default of 3.
	MaxRetries int
	// Backoff is the base retry delay; attempt k waits Backoff<<k, capped at
	// BackoffCap. The wait is charged to the device's modelled clock
	// (Stats.SimFaultTime, an Eq. 10 degradation term), not slept on the
	// host, so degraded experiments report honest timings without running
	// slower than the faults they simulate.
	Backoff time.Duration
	// BackoffCap caps the exponential backoff.
	BackoffCap time.Duration
	// VerifyFraction is the fraction of result elements spot-verified per
	// op by host residue recomputation, in [0, 1]. Zero disables
	// verification — corrupted kernels then go undetected.
	VerifyFraction float64
	// VerifySeed drives the sampling of verified indices.
	VerifySeed uint64
	// NoHostFallback disables the CPU fallback entirely: an op that exhausts
	// its retry budget, or hits a Failed device, surfaces its typed
	// *gpu.KernelError instead of being served by the host. This is the mode
	// a DeviceSet member runs in — the shard scheduler owns failover, and a
	// per-device silent fallback would hide the fault from it.
	NoHostFallback bool
}

// withDefaults fills unset fields.
func (c CheckedConfig) withDefaults() CheckedConfig {
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 64 * time.Millisecond
	}
	return c
}

// CheckedStats counts the checked layer's activity — the fault, retry, and
// fallback counters the benchmarks surface next to sim/wall timings.
type CheckedStats struct {
	// Ops is the number of vector operations issued.
	Ops int64
	// LaunchFaults counts failed device launch attempts observed.
	LaunchFaults int64
	// Retries counts re-executions after a fault or a verification miss.
	Retries int64
	// VerifySamples and VerifyFailures count residue spot-checks and the
	// corruptions they caught.
	VerifySamples  int64
	VerifyFailures int64
	// FallbackOps counts operations served by the host engine; FallbackWall
	// is the host time they took (degraded-mode cost, recorded separately).
	FallbackOps  int64
	FallbackWall time.Duration
	// BackoffSim is the simulated retry backoff charged to the device clock.
	BackoffSim time.Duration
	// FellBack reports the permanent failover latch: the device reached
	// Failed and every subsequent op runs on the host.
	FellBack bool
}

// CheckedEngine wraps a device Engine with the execution discipline a
// production GPU-HE deployment needs (DESIGN.md §7): typed launch failures
// are retried with capped exponential backoff, successful kernels are
// spot-verified by host residue checks, a device the health machine
// declares Failed is transparently replaced by the bit-exact CPUEngine, and
// every fault, retry, and fallback is counted.
type CheckedEngine struct {
	dev  *gpu.Device
	eng  *Engine
	host *CPUEngine
	cfg  CheckedConfig

	mu    sync.Mutex
	rng   *mpint.RNG
	stats CheckedStats
}

// NewCheckedEngine wraps e with the given policy.
func NewCheckedEngine(e *Engine, cfg CheckedConfig) (*CheckedEngine, error) {
	if e == nil {
		return nil, fmt.Errorf("ghe: NewCheckedEngine needs an engine")
	}
	cfg = cfg.withDefaults()
	return &CheckedEngine{
		dev:  e.Device(),
		eng:  e,
		host: NewCPUEngine(),
		cfg:  cfg,
		rng:  mpint.NewRNG(cfg.VerifySeed),
	}, nil
}

// MustCheckedEngine is NewCheckedEngine for known-good arguments; it panics
// on error. Intended for tests.
func MustCheckedEngine(e *Engine, cfg CheckedConfig) *CheckedEngine {
	c, err := NewCheckedEngine(e, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Device exposes the wrapped device.
func (c *CheckedEngine) Device() *gpu.Device { return c.dev }

// Stats returns a snapshot of the checked-layer counters.
func (c *CheckedEngine) Stats() CheckedStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// PublishMetrics snapshots the checked-layer counters into a metrics
// registry under the given prefix (DESIGN.md §9).
func (c *CheckedEngine) PublishMetrics(reg *obs.Registry, prefix string) {
	s := c.Stats()
	reg.Set(prefix+".ops", s.Ops)
	reg.Set(prefix+".launch_faults", s.LaunchFaults)
	reg.Set(prefix+".retries", s.Retries)
	reg.Set(prefix+".verify_samples", s.VerifySamples)
	reg.Set(prefix+".verify_failures", s.VerifyFailures)
	reg.Set(prefix+".fallback_ops", s.FallbackOps)
	reg.Set(prefix+".fallback_wall_ns", int64(s.FallbackWall))
	reg.Set(prefix+".backoff_sim_ns", int64(s.BackoffSim))
	ts := c.eng.TableStats()
	reg.Set(prefix+".table_builds", ts.Builds)
	reg.Set(prefix+".table_entries", ts.Entries)
	reg.Set(prefix+".table_ops", ts.Ops)
	fell := 0.0
	if s.FellBack {
		fell = 1
	}
	reg.SetGauge(prefix+".fell_back", fell)
}

// execute runs one vector op of n result elements under the checked
// discipline. gpuOp and hostOp run the op on the respective substrate;
// expect recomputes element i on the host for verification; got reads
// element i of the current attempt's result.
func (c *CheckedEngine) execute(op string, n int, gpuOp, hostOp func() error, expect, got func(i int) mpint.Nat) error {
	c.mu.Lock()
	c.stats.Ops++
	fellBack := c.stats.FellBack
	c.mu.Unlock()
	if fellBack {
		if c.cfg.NoHostFallback {
			return &gpu.KernelError{Kind: gpu.FaultDeviceFailed, Kernel: op}
		}
		return c.runHost(hostOp)
	}
	var lastKerr *gpu.KernelError
	for attempt := 0; ; attempt++ {
		err := gpuOp()
		if err != nil {
			// Only typed device failures are retryable; anything else is a
			// caller error (length mismatch, bad modulus) and surfaces as-is.
			var kerr *gpu.KernelError
			if !errors.As(err, &kerr) {
				return err
			}
			lastKerr = kerr
			c.mu.Lock()
			c.stats.LaunchFaults++
			c.mu.Unlock()
		} else if c.spotCheck(n, expect, got) {
			return nil
		} else {
			// The kernel reported success with corrupted contents: feed the
			// detection back into the device health machine and retry.
			c.dev.ReportFailure(op, gpu.FaultCorrupt)
			lastKerr = &gpu.KernelError{Kind: gpu.FaultCorrupt, Kernel: op}
		}
		if c.dev.Health() == gpu.DeviceFailed {
			c.mu.Lock()
			c.stats.FellBack = true
			c.mu.Unlock()
			if c.cfg.NoHostFallback {
				return lastKerr
			}
			return c.runHost(hostOp)
		}
		if attempt >= c.cfg.MaxRetries {
			// Retry budget spent without the device being declared dead: serve
			// this op from the host but keep the device in rotation — unless
			// failover belongs to the layer above.
			if c.cfg.NoHostFallback {
				return lastKerr
			}
			return c.runHost(hostOp)
		}
		backoff := c.cfg.Backoff << uint(attempt)
		if backoff > c.cfg.BackoffCap {
			backoff = c.cfg.BackoffCap
		}
		c.dev.ChargeFaultTime(backoff)
		c.mu.Lock()
		c.stats.Retries++
		c.stats.BackoffSim += backoff
		c.mu.Unlock()
	}
}

// runHost executes the op on the host engine, charging the wall time to the
// device's modelled clock so degraded rounds report their true cost.
func (c *CheckedEngine) runHost(hostOp func() error) error {
	start := time.Now()
	err := hostOp()
	wall := time.Since(start)
	c.dev.ChargeFaultTime(wall)
	c.mu.Lock()
	c.stats.FallbackOps++
	c.stats.FallbackWall += wall
	c.mu.Unlock()
	return err
}

// spotCheck verifies ceil(VerifyFraction·n) sampled elements by residue
// comparison against a host recomputation. Indices are sampled without
// replacement, so the checked count matches the documented fraction and
// VerifyFraction=1 deterministically checks every element. It reports
// whether the result passed (vacuously true with verification off).
func (c *CheckedEngine) spotCheck(n int, expect, got func(i int) mpint.Nat) bool {
	if c.cfg.VerifyFraction <= 0 || n == 0 || expect == nil {
		return true
	}
	samples := int(float64(n)*c.cfg.VerifyFraction + 0.999999)
	if samples < 1 {
		samples = 1
	}
	if samples > n {
		samples = n
	}
	p := mpint.FromUint64(verifyPrime)
	for _, i := range c.sampleIndices(n, samples) {
		c.mu.Lock()
		c.stats.VerifySamples++
		c.mu.Unlock()
		if mpint.Cmp(mpint.Mod(got(i), p), mpint.Mod(expect(i), p)) != 0 {
			c.mu.Lock()
			c.stats.VerifyFailures++
			c.mu.Unlock()
			return false
		}
	}
	return true
}

// sampleIndices picks `samples` distinct indices in [0, n). A full scan
// consumes no random draws; a partial one is a partial Fisher–Yates
// shuffle, so no index is checked twice within one attempt.
func (c *CheckedEngine) sampleIndices(n, samples int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if samples >= n {
		return idx
	}
	c.mu.Lock()
	for s := 0; s < samples; s++ {
		j := s + c.rng.Intn(n-s)
		idx[s], idx[j] = idx[j], idx[s]
	}
	c.mu.Unlock()
	return idx[:samples]
}

// ModExpVec implements VectorEngine.
func (c *CheckedEngine) ModExpVec(bases []mpint.Nat, exp mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	var out []mpint.Nat
	err := c.execute("mod_exp_vec", len(bases),
		func() (err error) { out, err = c.eng.ModExpVec(bases, exp, m); return },
		func() (err error) { out, err = c.host.ModExpVec(bases, exp, m); return },
		func(i int) mpint.Nat { return m.Exp(bases[i], exp) },
		func(i int) mpint.Nat { return out[i] })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PowNVec implements VectorEngine. Verification recomputes sampled elements
// through the n² sliding window — the path a party without the factorisation
// runs, which shares no stage, schedule or constant with the fused kernel, so
// a fault in any leg of it (a wrong residue mod p² recombines into a valid
// but wrong element of Z*ₙ²) cannot also corrupt the check.
func (c *CheckedEngine) PowNVec(xs []mpint.Nat, crt *mpint.CRT, m *mpint.Mont) ([]mpint.Nat, error) {
	var out []mpint.Nat
	err := c.execute("pow_n_crt_vec", len(xs),
		func() (err error) { out, err = c.eng.PowNVec(xs, crt, m); return },
		func() (err error) { out, err = c.host.PowNVec(xs, crt, m); return },
		func(i int) mpint.Nat { return m.Exp(xs[i], crt.N()) },
		func(i int) mpint.Nat { return out[i] })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ModExpVarVec implements VectorEngine.
func (c *CheckedEngine) ModExpVarVec(bases, exps []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	var out []mpint.Nat
	err := c.execute("mod_exp_var_vec", len(bases),
		func() (err error) { out, err = c.eng.ModExpVarVec(bases, exps, m); return },
		func() (err error) { out, err = c.host.ModExpVarVec(bases, exps, m); return },
		func(i int) mpint.Nat { return m.Exp(bases[i], exps[i]) },
		func(i int) mpint.Nat { return out[i] })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FixedBaseExpVec implements VectorEngine. Verification recomputes sampled
// elements through the generic sliding window — a path independent of the
// comb table, so a corrupted table entry (which would skew every element it
// feeds) cannot also corrupt the check.
func (c *CheckedEngine) FixedBaseExpVec(base mpint.Nat, exps []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	var out []mpint.Nat
	err := c.execute("fixed_base_exp_vec", len(exps),
		func() (err error) { out, err = c.eng.FixedBaseExpVec(base, exps, m); return },
		func() (err error) { out, err = c.host.FixedBaseExpVec(base, exps, m); return },
		func(i int) mpint.Nat { return m.Exp(base, exps[i]) },
		func(i int) mpint.Nat { return out[i] })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ModMulVec implements VectorEngine. Verification recomputes sampled
// elements through the plain (non-Montgomery) path, so a systematic kernel
// error cannot also corrupt the check.
func (c *CheckedEngine) ModMulVec(a, b []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	var out []mpint.Nat
	err := c.execute("mod_mul_vec", len(a),
		func() (err error) { out, err = c.eng.ModMulVec(a, b, m); return },
		func() (err error) { out, err = c.host.ModMulVec(a, b, m); return },
		func(i int) mpint.Nat { return mpint.ModMul(a[i], b[i], m.N()) },
		func(i int) mpint.Nat { return out[i] })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RandCoprimeVec implements VectorEngine.
func (c *CheckedEngine) RandCoprimeVec(n int, m mpint.Nat, seed uint64) ([]mpint.Nat, error) {
	return c.RandCoprimeRange(0, n, m, seed)
}

// RandCoprimeRange generates items [base, base+n) of the RandCoprimeVec(m,
// seed) stream under the checked discipline. The per-item streams are
// deterministic in (seed, global position), so verification recomputes
// sampled items at their positions and a range the device cannot produce
// fails over to the host with the exact same values.
func (c *CheckedEngine) RandCoprimeRange(base, n int, m mpint.Nat, seed uint64) ([]mpint.Nat, error) {
	var out []mpint.Nat
	err := c.execute("rand_coprime_vec", n,
		func() (err error) { out, err = c.eng.RandCoprimeRange(base, n, m, seed); return },
		func() (err error) { out, err = c.host.RandCoprimeRange(base, n, m, seed); return },
		func(i int) mpint.Nat { return randCoprimeAt(seed, base+i, m) },
		func(i int) mpint.Nat { return out[i] })
	if err != nil {
		return nil, err
	}
	return out, nil
}
