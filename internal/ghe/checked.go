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

// A checked op's retry backoff: the wait before retry attempt+1 is
// backoffBase<<attempt, capped at backoffCap. The wait is charged to the
// device's modelled clock (Stats.SimFaultTime, an Eq. 10 degradation term),
// not slept on the host, so degraded experiments report honest timings
// without running slower than the faults they simulate.
const (
	backoffBase = time.Millisecond
	backoffCap  = 64 * time.Millisecond
)

// ErrCheckedConfig is what CheckedConfig.Validate rejects a policy with.
var ErrCheckedConfig = errors.New("ghe: checked-execution setting out of range")

// CheckedConfig parameterizes a CheckedEngine. The zero value gets sane
// defaults: 3 retries, verification off.
type CheckedConfig struct {
	// MaxRetries bounds re-executions of one shard on one device after device
	// faults or verification misses. Zero means the default of 3.
	MaxRetries int
	// VerifyFraction is the fraction of result elements spot-verified per
	// launch by host residue recomputation, in [0, 1]. Zero disables
	// verification — corrupted kernels then go undetected.
	VerifyFraction float64
	// VerifySeed drives the sampling of verified indices.
	VerifySeed uint64
}

// Validate rejects, with ErrCheckedConfig, a negative retry budget and a
// verification fraction that is not a finite number in [0, 1].
func (c CheckedConfig) Validate() error {
	switch {
	case c.MaxRetries < 0:
		return fmt.Errorf("%w: negative retry budget %d", ErrCheckedConfig, c.MaxRetries)
	case !(c.VerifyFraction >= 0 && c.VerifyFraction <= 1): // NaN too
		return fmt.Errorf("%w: verification fraction %v outside [0, 1]", ErrCheckedConfig, c.VerifyFraction)
	}
	return nil
}

// withDefaults fills unset fields.
func (c CheckedConfig) withDefaults() CheckedConfig {
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	return c
}

// backoff is the wait before retry attempt+1. The shift is compared against
// the cap before it is taken, so no retry count can wrap it negative.
func backoff(attempt int) time.Duration {
	if backoffBase > backoffCap>>uint(attempt) {
		return backoffCap
	}
	return backoffBase << uint(attempt)
}

// CheckedStats is the executor's ledger. The ops it issued and how they were
// served: shards, steals, the ranges the host loop served once no device was
// left, and the merged clocks. And what the checked discipline saw on its
// members: launch faults, retries and spot checks. A device fault itself is
// recorded once, on the member's device (gpu.Stats): its health — Failed is
// permanent failover — its fault kinds, and in SimFaultTime the retry backoff
// beside the stalls' watchdog windows.
type CheckedStats struct {
	// Ops counts the vector ops issued.
	Ops int64
	// Shards counts shards dispatched to members, rework included.
	Shards int64
	// Steals counts shards re-queued from a faulted member onto healthy ones.
	Steals int64
	// HostShards counts ranges served by the host loop: every op's one range
	// on a fleet of no member, else what is left once every member was
	// excluded.
	HostShards int64
	// RebalanceSim is the modelled time the rework waves added to the
	// parallel span — the price of migration, included in SimParallelTime.
	RebalanceSim time.Duration
	// SimParallelTime is the measured parallel span: per wave, the maximum
	// modelled-time delta across the participating members. The same work
	// priced sequentially is the sum of the members' SimTime(), so
	// SimParallelTime over that sum is the measured scaling efficiency.
	SimParallelTime time.Duration
	// HostSim is the wall time of the host-served ranges, charged to the
	// executor's clock: the whole clock of a fleet of no member,
	// degraded-mode cost on one with members.
	HostSim time.Duration
	// LaunchFaults counts failed device launch attempts observed.
	LaunchFaults int64
	// Retries counts re-executions after a fault or a verification miss.
	Retries int64
	// VerifySamples counts residue spot-checks; the corruptions they caught
	// are the devices' FaultCorruptions.
	VerifySamples int64
}

// add accumulates a member's share — the counters a member keeps — into the
// aggregate.
func (s *CheckedStats) add(m CheckedStats) {
	s.LaunchFaults += m.LaunchFaults
	s.Retries += m.Retries
	s.VerifySamples += m.VerifySamples
}

// CheckedEngine is the one executor of the GPU-HE layer (DESIGN.md §7, §15):
// it owns a fleet of D ≥ 0 simulated devices and runs every vector op over it
// with the execution discipline a production deployment needs. The op splits
// into contiguous shards, one per healthy member; each member launches its
// shard (one attempt: member.launch), spot-verifies the result by host residue
// checks, and retries typed launch failures and verification misses with
// capped exponential backoff. A member that cannot serve a shard surfaces its
// typed *gpu.KernelError to the scheduler (serveOp), never a silent host
// result: the scheduler excludes it and re-queues its work onto the healthy
// peers, and only when none is left does the bit-exact host loop (runOnHost)
// serve what remains — every op, on a fleet of no member: the CPU profiles'
// executor. Every fault, retry and fallback is counted.
//
// Bit-exactness with a single launch and with the host loop holds by
// construction: a shard is the op's own descriptor over a sub-range, so every
// element is computed by the same lane at the same index of the one output
// vector and nonce streams stay keyed by global item position; no schedule —
// mid-batch device death and work stealing included — can change a single
// output bit.
type CheckedEngine struct {
	members []*member
	cfg     CheckedConfig
	frames  sync.Pool // of *Frame
	window  int       // Miller–Rabin rounds a key-generation launch tests

	// One op is in flight at a time, owning every member clock and every
	// counter: flight is the executor's one lock, held by an op from issue to
	// return and by every reader of the ledger. The op being served is engine
	// state, as are the scheduler's scratch — the members it may still use
	// and the item ranges still to run — and stats, the ledger's op-level
	// half. A batch holds the flight for all of its ops; job is where their
	// launches leave their bodies (nil outside a batch and under
	// verification), and helpers the pool workers its lanes run on: as many
	// as the widest member cuts a launch for.
	flight  sync.Mutex
	op      vecOp
	elig    []*member
	pending []shard
	stats   CheckedStats
	job     *gpu.Job
	batch   gpu.Job
	packed  encryptJob
	helpers int
}

// member is one device of the fleet under the checked discipline: the device,
// its own verification sampler (so a member's samples do not depend on its
// peers' traffic), its share of the counters and of the table counters, and
// its share of the wave in progress. Only the one goroutine serving the member
// in a wave writes them, under the op's flight.
type member struct {
	dev   *gpu.Device
	label string // "dev<i>", the device's label in spans, errors and metrics

	rng   *mpint.RNG
	stats CheckedStats
	table tableStats

	// The member's share of a wave: the shards queued on it and its clock
	// before them; then how many shards it finished and the error that
	// stopped it short.
	shards []shard
	base   time.Duration
	done   int
	err    error
}

// tableStats counts a member's shared-table precomputation activity: the
// odd-power tables built for multi_exp_vec launches (DESIGN.md §17) and the
// elements they served.
type tableStats struct {
	builds  int64 // tables constructed, one a launch
	entries int64 // table entries built: 2^(w−1) a referenced base
	ops     int64 // elements evaluated through a table
}

// MaxDevices bounds the fleet an executor accepts — a sanity rail for the
// CLI flags, not a simulator limit.
const MaxDevices = 64

// NewCheckedEngine builds the executor over `devices` ≥ 0 devices of one
// configuration, each with its own resource manager, clock and health
// machine, and the stable label ("dev0"…) that tags its trace spans. Fault
// injectors are attached per device by the caller — each device fails
// independently. A fleet of no member is the host's: the host loop serves
// every op, and SimTime is that loop's wall time.
func NewCheckedEngine(dev gpu.Config, fineRM bool, devices int, cfg CheckedConfig) (*CheckedEngine, error) {
	if devices < 0 || devices > MaxDevices {
		return nil, fmt.Errorf("ghe: device count %d outside [0, %d]", devices, MaxDevices)
	}
	c := &CheckedEngine{cfg: cfg.withDefaults(), members: make([]*member, devices)}
	workers := 0
	for i := range c.members {
		d, err := gpu.New(dev, fineRM)
		if err != nil {
			return nil, err
		}
		mb := &member{dev: d, label: fmt.Sprintf("dev%d", i), rng: mpint.NewRNG(cfg.VerifySeed)}
		d.SetDeviceLabel(mb.label)
		workers += d.Workers()
		c.helpers = max(c.helpers, d.Workers())
		c.members[i] = mb
	}
	c.window = roundWindow(workers)
	return c, nil
}

// Devices returns the member devices, in member order.
func (c *CheckedEngine) Devices() []*gpu.Device {
	devs := make([]*gpu.Device, len(c.members))
	for i, mb := range c.members {
		devs[i] = mb.dev
	}
	return devs
}

// Stats returns a snapshot of the ledger, the members' shares summed.
func (c *CheckedEngine) Stats() CheckedStats {
	c.flight.Lock()
	defer c.flight.Unlock()
	st := c.stats
	for _, mb := range c.members {
		st.add(mb.stats)
	}
	return st
}

// SimTime is the executor's modelled online clock: the merged parallel span
// plus the host-served time. It is the multi-device analogue of
// gpu.Stats.SimTime and what fl's cost accounting reads on every profile.
func (c *CheckedEngine) SimTime() time.Duration {
	c.flight.Lock()
	defer c.flight.Unlock()
	return c.stats.SimParallelTime + c.stats.HostSim
}

// ResetStats zeroes the ledger, the table counters and every member device's
// counters, and restarts every member's verification sampler, so what runs
// next is sampled and counted as on a fresh engine. Health states survive,
// exactly as on a single device.
func (c *CheckedEngine) ResetStats() {
	c.flight.Lock()
	defer c.flight.Unlock()
	c.stats = CheckedStats{}
	for _, mb := range c.members {
		mb.dev.ResetStats()
		mb.stats, mb.table, mb.rng = CheckedStats{}, tableStats{}, mpint.NewRNG(c.cfg.VerifySeed)
	}
}

// PublishMetrics snapshots the fleet and the ledger into a metrics registry
// (DESIGN.md §9). Under "gpu.<label>": the members' device counters summed
// (gpu.Sum), each member's under ".dev<i>", and the scheduler's counters
// (devset_shards, devset_steals, devset_rebalance_ns, the merged clocks).
// Under "ghe.<label>": the checked-layer counters summed, each member's share
// under ".dev<i>".
func (c *CheckedEngine) PublishMetrics(reg *obs.Registry, label string) {
	c.flight.Lock()
	defer c.flight.Unlock()
	gp, hp := "gpu."+label, "ghe."+label
	st, devs := c.stats, c.Devices()
	gpu.Sum(devs).Publish(reg, gp)
	var tables tableStats
	for _, mb := range c.members {
		mb.dev.Stats().Publish(reg, gp+"."+mb.label)
		publishShare(reg, hp+"."+mb.label, mb.stats, mb.table)
		st.add(mb.stats)
		tables.builds += mb.table.builds
		tables.entries += mb.table.entries
		tables.ops += mb.table.ops
	}
	publishShare(reg, hp, st, tables)
	reg.Set(gp+".devset_devices", int64(len(devs)))
	reg.Set(gp+".devset_ops", st.Ops)
	reg.Set(gp+".devset_shards", st.Shards)
	reg.Set(gp+".devset_steals", st.Steals)
	reg.Set(gp+".devset_host_shards", st.HostShards)
	reg.Set(gp+".devset_rebalance_ns", int64(st.RebalanceSim))
	reg.Set(gp+".devset_parallel_ns", int64(st.SimParallelTime))
	reg.Set(gp+".devset_host_sim_ns", int64(st.HostSim))
}

// publishShare writes the counters a member keeps — and the aggregate sums —
// under one prefix.
func publishShare(reg *obs.Registry, prefix string, s CheckedStats, ts tableStats) {
	reg.Set(prefix+".launch_faults", s.LaunchFaults)
	reg.Set(prefix+".retries", s.Retries)
	reg.Set(prefix+".verify_samples", s.VerifySamples)
	reg.Set(prefix+".table_builds", ts.builds)
	reg.Set(prefix+".table_entries", ts.entries)
	reg.Set(prefix+".table_ops", ts.ops)
}

// schedule serves one op under the flight: members serve its shards under the
// checked discipline, the host loop serves what no member could.
func (c *CheckedEngine) schedule(op vecOp) error {
	c.flight.Lock()
	defer c.flight.Unlock()
	return c.serveOp(op)
}

// scheduleBatch runs a batch of encryptions as one host job. Each op is
// issued in order, under the one flight, through the unchanged shard, retry
// and failover path, so each of its launches is decided and charged as it is
// issued; their bodies wait in the batch's job, whose lanes run together once
// the last op — or the first that fails — is issued. Under verification the
// bodies run at once instead, so spot checks read finished results. It
// returns how many ops completed.
func (c *CheckedEngine) scheduleBatch(ops []encryptOp) (int, error) {
	c.flight.Lock()
	defer c.flight.Unlock()
	if c.cfg.VerifyFraction <= 0 {
		c.job = &c.batch
		defer c.runJob()
	}
	for i := range ops {
		if len(ops[i].out) == 0 {
			continue
		}
		if err := c.serveOp(&ops[i]); err != nil {
			return i, err
		}
	}
	return len(ops), nil
}

// runJob runs the lanes the batch's launches left in its job, packed end to
// end into lane groups, and ends the batch.
func (c *CheckedEngine) runJob() {
	c.job = nil
	b, items := &c.packed, 0
	for _, p := range c.batch.Parts() {
		items += p.Items
		b.parts, b.ends = append(b.parts, p.Body.(*encryptOp)), append(b.ends, items)
	}
	c.batch.Run(b, items, c.helpers)
	clear(b.parts)
	b.parts, b.ends = b.parts[:0], b.ends[:0]
}

// serve runs one shard on the member's device until an attempt both launches
// and verifies. Only typed device failures are retried; anything else is a
// caller error and surfaces as-is. When the device is declared Failed, or
// the retry budget is spent without that, the last typed fault goes back to
// the scheduler, which owns failover. Every attempt writes the shard's own
// result elements: a launch returns only once its lanes have, or, with a job,
// leaves them to it — only then is verification off.
func (mb *member) serve(op vecOp, cfg *CheckedConfig, job *gpu.Job) error {
	dev := mb.dev
	var last *gpu.KernelError
	for attempt := 0; ; attempt++ {
		if err := mb.launch(op, job); err != nil {
			var kerr *gpu.KernelError
			if !errors.As(err, &kerr) {
				return err
			}
			last = kerr
			mb.stats.LaunchFaults++
		} else if mb.spotCheck(op, cfg.VerifyFraction) {
			return nil
		} else {
			// The kernel reported success with corrupted contents: feed the
			// detection back into the device health machine and retry.
			dev.ReportFailure(gpu.FaultCorrupt)
			last = &gpu.KernelError{Kind: gpu.FaultCorrupt, Kernel: op.name()}
		}
		if dev.Health() == gpu.DeviceFailed || attempt >= cfg.MaxRetries {
			return last
		}
		dev.ChargeFaultTime(backoff(attempt))
		mb.stats.Retries++
	}
}

// launch runs op once on the member's device, the pipeline of Fig. 4: account
// the host→device copy, run the op's set-up stage if it has one, launch a
// data-parallel kernel (one item per element), account the device→host copy.
// A launch that faults surfaces its typed *gpu.KernelError. With a job the
// kernel's body is left to it (gpu.Kernel.Job): everything else happens here,
// as it does without one.
func (mb *member) launch(op vecOp, job *gpu.Job) error {
	if n := op.h2d(); n > 0 {
		mb.dev.CopyToDevice(n)
	}
	entries, err := op.setup(mb.dev)
	if err != nil {
		return fmt.Errorf("ghe: %s: %w", op.name(), err)
	}
	kern := op.kernel(mb.dev.Config().WarpSize)
	kern.Name, kern.Items, kern.Body, kern.Job = op.name(), len(op.result()), op, job
	if _, err := mb.dev.Launch(kern); err != nil {
		return fmt.Errorf("ghe: %s: %w", op.name(), err)
	}
	mb.dev.CopyFromDevice(op.d2h())
	if entries > 0 {
		mb.table.builds++
		mb.table.entries += int64(entries)
		mb.table.ops += int64(kern.Items)
	}
	return nil
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
		mb.stats.VerifySamples++
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
	for s := 0; s < samples; s++ {
		j := s + mb.rng.Intn(n-s)
		idx[s], idx[j] = idx[j], idx[s]
	}
	return idx[:samples]
}
