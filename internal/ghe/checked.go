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

// backoffCap caps a checked op's exponential retry backoff.
const backoffCap = 64 * time.Millisecond

// CheckedConfig parameterizes a CheckedEngine. The zero value gets sane
// defaults: 3 retries, 1ms base backoff capped at 64ms, verification off.
type CheckedConfig struct {
	// MaxRetries bounds re-executions of one shard on one device after device
	// faults or verification misses. Zero means the default of 3.
	MaxRetries int
	// Backoff is the base retry delay; attempt k waits Backoff<<k, capped at
	// backoffCap. The wait is charged to the device's modelled clock
	// (Stats.SimFaultTime, an Eq. 10 degradation term), not slept on the
	// host, so degraded experiments report honest timings without running
	// slower than the faults they simulate.
	Backoff time.Duration
	// VerifyFraction is the fraction of result elements spot-verified per
	// launch by host residue recomputation, in [0, 1]. Zero disables
	// verification — corrupted kernels then go undetected.
	VerifyFraction float64
	// VerifySeed drives the sampling of verified indices.
	VerifySeed uint64
}

// withDefaults fills unset fields.
func (c CheckedConfig) withDefaults() CheckedConfig {
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = time.Millisecond
	}
	return c
}

// backoff is the wait before retry attempt+1: Backoff<<attempt, saturated at
// backoffCap. The shift is compared against the cap before it is taken, so no
// retry count can wrap it negative.
func (c CheckedConfig) backoff(attempt int) time.Duration {
	if c.Backoff > backoffCap>>uint(attempt) {
		return backoffCap
	}
	return c.Backoff << uint(attempt)
}

// CheckedStats counts the checked layer's activity — the fault and retry
// counters the benchmarks surface next to sim/wall timings. The ops issued and
// the host ledger — the ranges the host loop served once no device was left,
// and their host time — are the device set's (gpu.SetStats Ops, HostShards,
// HostSim).
type CheckedStats struct {
	// LaunchFaults counts failed device launch attempts observed.
	LaunchFaults int64
	// Retries counts re-executions after a fault or a verification miss.
	Retries int64
	// VerifySamples and VerifyFailures count residue spot-checks and the
	// corruptions they caught.
	VerifySamples  int64
	VerifyFailures int64
	// BackoffSim is the simulated retry backoff charged to the device clocks.
	BackoffSim time.Duration
	// FellBack reports permanent failover: a member device reached Failed and
	// its share of every later op goes to its peers, or to the host with none.
	FellBack bool
}

// add accumulates a member's share into the aggregate.
func (s *CheckedStats) add(m CheckedStats) {
	s.LaunchFaults += m.LaunchFaults
	s.Retries += m.Retries
	s.VerifySamples += m.VerifySamples
	s.VerifyFailures += m.VerifyFailures
	s.BackoffSim += m.BackoffSim
	s.FellBack = s.FellBack || m.FellBack
}

// CheckedEngine is the one executor of the GPU-HE layer (DESIGN.md §7, §15):
// it runs every vector op over a gpu.DeviceSet of D ≥ 1 members with the
// execution discipline a production deployment needs. The op splits into
// contiguous shards, one per healthy member; each member launches its shard
// (the bare Engine's single attempt), spot-verifies the result by host
// residue checks, and retries typed launch failures and verification misses
// with capped exponential backoff. A member that cannot serve a shard
// surfaces its typed *gpu.KernelError to the set's scheduler, never a silent
// host result: the scheduler excludes it and re-queues its work onto the
// healthy peers, and only when none is left does the bit-exact host loop
// serve what remains. Every fault, retry and fallback is counted.
//
// Bit-exactness with the bare Engine holds by construction: a shard is the
// op's own descriptor over a sub-range, so every element is computed by the
// same lane at the same index of the one output vector and nonce streams stay
// keyed by global item position; no schedule — mid-batch device death and
// work stealing included — can change a single output bit.
type CheckedEngine struct {
	vecAPI
	set     *gpu.DeviceSet
	members []*member
	cfg     CheckedConfig

	// One op is in flight at a time — the set serialises ops anyway, one op
	// owning every member clock — so the op being served is engine state and
	// the scheduler's two callbacks are bound once, in sched, not per op.
	flight sync.Mutex
	op     vecOp
	sched  gpu.ShardOp
}

// member is one device of the set under the checked discipline: its bare
// engine, its own verification sampler (so a member's samples do not depend
// on its peers' traffic) and its share of the counters.
type member struct {
	eng *Engine

	mu    sync.Mutex
	rng   *mpint.RNG
	stats CheckedStats
}

// NewCheckedEngine builds the executor over a device set.
func NewCheckedEngine(set *gpu.DeviceSet, cfg CheckedConfig) (*CheckedEngine, error) {
	if set == nil {
		return nil, fmt.Errorf("ghe: NewCheckedEngine needs a device set")
	}
	c := &CheckedEngine{set: set, cfg: cfg.withDefaults(), members: make([]*member, set.Size())}
	workers := 0
	for _, d := range set.Devices() {
		workers += d.Workers()
	}
	c.vecAPI = vecAPI{c.schedule, new(sync.Pool), roundWindow(workers)}
	c.sched = gpu.ShardOp{Run: c.onMember, Host: c.onHost}
	for i := range c.members {
		eng, err := NewEngine(set.Device(i))
		if err != nil {
			return nil, err
		}
		c.members[i] = &member{eng: eng, rng: mpint.NewRNG(cfg.VerifySeed)}
	}
	return c, nil
}

// Set exposes the device set the engine schedules over.
func (c *CheckedEngine) Set() *gpu.DeviceSet { return c.set }

// Stats returns a snapshot of the counters, summed over the members.
func (c *CheckedEngine) Stats() CheckedStats {
	var agg CheckedStats
	for _, mb := range c.members {
		agg.add(mb.snapshot())
	}
	return agg
}

// ResetStats zeroes the counters, the device set's with them, and restarts
// every member's verification sampler, so what runs next is sampled and
// counted as on a fresh engine.
func (c *CheckedEngine) ResetStats() {
	c.set.ResetStats()
	for _, mb := range c.members {
		mb.mu.Lock()
		mb.stats, mb.rng = CheckedStats{}, mpint.NewRNG(c.cfg.VerifySeed)
		mb.mu.Unlock()
	}
}

// snapshot returns the member's counters, with FellBack read off its device.
func (mb *member) snapshot() CheckedStats {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	s := mb.stats
	s.FellBack = mb.eng.dev.Health() == gpu.DeviceFailed
	return s
}

// PublishMetrics snapshots the checked-layer counters into a metrics
// registry (DESIGN.md §9): ops issued and the host ledger, read off the
// device set, and every member counter summed under prefix, each member's
// share under prefix+".dev<i>".
func (c *CheckedEngine) PublishMetrics(reg *obs.Registry, prefix string) {
	set := c.set.Stats()
	reg.Set(prefix+".ops", set.Ops)
	reg.Set(prefix+".fallback_ops", set.HostShards)
	reg.Set(prefix+".fallback_wall_ns", int64(set.HostSim))
	agg := c.Stats()
	var tables TableStats
	for i, mb := range c.members {
		ts := mb.eng.TableStats()
		tables.Builds += ts.Builds
		tables.Entries += ts.Entries
		tables.Ops += ts.Ops
		publishShare(reg, fmt.Sprintf("%s.dev%d", prefix, i), mb.snapshot(), ts)
	}
	publishShare(reg, prefix, agg, tables)
}

// publishShare writes the counters a member keeps — and the aggregate sums —
// under one prefix.
func publishShare(reg *obs.Registry, prefix string, s CheckedStats, ts TableStats) {
	reg.Set(prefix+".launch_faults", s.LaunchFaults)
	reg.Set(prefix+".retries", s.Retries)
	reg.Set(prefix+".verify_samples", s.VerifySamples)
	reg.Set(prefix+".verify_failures", s.VerifyFailures)
	reg.Set(prefix+".backoff_sim_ns", int64(s.BackoffSim))
	reg.Set(prefix+".table_builds", ts.Builds)
	reg.Set(prefix+".table_entries", ts.Entries)
	reg.Set(prefix+".table_ops", ts.Ops)
	fell := 0.0
	if s.FellBack {
		fell = 1
	}
	reg.SetGauge(prefix+".fell_back", fell)
}

// schedule hands one op to the set's scheduler: members serve its shards under
// the checked discipline, the host loop serves what no member could.
func (c *CheckedEngine) schedule(op vecOp) error {
	c.flight.Lock()
	defer c.flight.Unlock()
	c.op = op
	c.sched.Name, c.sched.Items = op.name(), len(op.result())
	err := c.set.Run(c.sched)
	c.op = nil
	return err
}

// onMember serves one shard of the op in flight on member dev.
func (c *CheckedEngine) onMember(dev int, sh gpu.Shard) error {
	return c.members[dev].serve(shardOf(c.op, sh), &c.cfg)
}

// onHost serves one range of the op in flight with the host loop; the set
// enters it in its host ledger.
func (c *CheckedEngine) onHost(sh gpu.Shard) error {
	return runOnHost(shardOf(c.op, sh))
}

// serve runs one shard on the member's device until an attempt both launches
// and verifies. Only typed device failures are retried; anything else is a
// caller error and surfaces as-is. When the device is declared Failed, or
// the retry budget is spent without that, the last typed fault goes back to
// the scheduler, which owns failover. Every attempt writes the shard's own
// result elements: a launch returns only once its lanes have.
func (mb *member) serve(op vecOp, cfg *CheckedConfig) error {
	dev := mb.eng.dev
	var last *gpu.KernelError
	for attempt := 0; ; attempt++ {
		if err := mb.eng.launch(op); err != nil {
			var kerr *gpu.KernelError
			if !errors.As(err, &kerr) {
				return err
			}
			last = kerr
			mb.mu.Lock()
			mb.stats.LaunchFaults++
			mb.mu.Unlock()
		} else if mb.spotCheck(op, cfg.VerifyFraction) {
			return nil
		} else {
			// The kernel reported success with corrupted contents: feed the
			// detection back into the device health machine and retry.
			dev.ReportFailure(op.name(), gpu.FaultCorrupt)
			last = &gpu.KernelError{Kind: gpu.FaultCorrupt, Kernel: op.name()}
		}
		if dev.Health() == gpu.DeviceFailed || attempt >= cfg.MaxRetries {
			return last
		}
		backoff := cfg.backoff(attempt)
		dev.ChargeFaultTime(backoff)
		mb.mu.Lock()
		mb.stats.Retries++
		mb.stats.BackoffSim += backoff
		mb.mu.Unlock()
	}
}

// spotCheck verifies ceil(frac·n) sampled elements of the shard by residue
// comparison against the op's independent recomputation. Indices are sampled
// without replacement, so the checked count matches the documented fraction
// and a fraction of 1 deterministically checks every element. It reports
// whether the result passed (vacuously true with verification off).
func (mb *member) spotCheck(op vecOp, frac float64) bool {
	if frac <= 0 {
		return true
	}
	out := op.result()
	n := len(out)
	samples := int(float64(n)*frac + 0.999999)
	if samples < 1 {
		samples = 1
	}
	if samples > n {
		samples = n
	}
	p := mpint.FromUint64(verifyPrime)
	for _, i := range mb.sampleIndices(n, samples) {
		ok := mpint.Cmp(mpint.Mod(out[i], p), mpint.Mod(op.verify(i), p)) == 0
		mb.mu.Lock()
		mb.stats.VerifySamples++
		if !ok {
			mb.stats.VerifyFailures++
		}
		mb.mu.Unlock()
		if !ok {
			return false
		}
	}
	return true
}

// sampleIndices picks `samples` distinct indices in [0, n). A full scan
// consumes no random draws; a partial one is a partial Fisher–Yates
// shuffle, so no index is checked twice within one attempt.
func (mb *member) sampleIndices(n, samples int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if samples >= n {
		return idx
	}
	mb.mu.Lock()
	for s := 0; s < samples; s++ {
		j := s + mb.rng.Intn(n-s)
		idx[s], idx[j] = idx[j], idx[s]
	}
	mb.mu.Unlock()
	return idx[:samples]
}
