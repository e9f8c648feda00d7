package gpu

import (
	"fmt"
	"sync"
	"time"

	"flbooster/internal/obs"
)

// Multi-device sharding (DESIGN.md §15): a DeviceSet is D simulated devices
// — each with its own clock, fault injector, and health machine — behind a
// shard scheduler. Vector HE ops split into contiguous shards, dispatch
// across the devices, and merge their per-device sim clocks into one
// measured parallel span: the max over devices per wave, never the sum, so a
// device idling while its peers finish is not charged.
// When the fault layer degrades or kills a device mid-batch, its unfinished
// shards are re-queued onto the healthy devices (work stealing), subdivided
// so the rework is itself parallel; the rework's launches and copies are
// charged to the cost model like any others.

// MaxDevices bounds the device count a set accepts — a sanity rail for the
// CLI flags, not a simulator limit.
const MaxDevices = 64

// Shard is one contiguous item range [Lo, Hi) of a sharded vector op.
type Shard struct {
	Lo, Hi int
}

// Len returns the shard's item count.
func (s Shard) Len() int { return s.Hi - s.Lo }

// piece returns piece j of the shard cut into `parts` contiguous near-equal
// pieces, the first Len()%parts of them one item longer. parts is in
// [1, Len()] and j in [0, parts).
func (s Shard) piece(parts, j int) Shard {
	q, r := s.Len()/parts, s.Len()%parts
	lo := s.Lo + j*q + min(j, r)
	hi := lo + q
	if j < r {
		hi++
	}
	return Shard{Lo: lo, Hi: hi}
}

// SetStats aggregates the scheduler's activity. Per-device kernel/copy/fault
// counters live on the member devices (DeviceSet.Device(i).Stats()); this
// records what the set adds on top: shard traffic, steals, and the merged
// clocks.
type SetStats struct {
	// Ops counts sharded vector ops run through the set.
	Ops int64
	// Shards counts shards dispatched to devices, rework included.
	Shards int64
	// Steals counts shards re-queued from a faulted device onto healthy ones.
	Steals int64
	// HostShards counts shards served by the host loop: every op's one shard
	// on a set of no member, else what is left once every device was excluded.
	HostShards int64
	// RebalanceSim is the modelled time the rework waves added to the
	// parallel span — the price of migration, included in SimParallelTime.
	RebalanceSim time.Duration
	// SimParallelTime is the measured parallel span: per wave, the maximum
	// modelled-time delta across the participating devices.
	SimParallelTime time.Duration
	// SimSequentialTime is the same work priced sequentially — the sum of
	// every device's delta. SimParallelTime / SimSequentialTime is the
	// measured scaling efficiency.
	SimSequentialTime time.Duration
	// HostSim is the wall time of the host-served shards, charged to the
	// set's clock: the whole clock of a set of no member, degraded-mode cost
	// on one with members.
	HostSim time.Duration
}

// DeviceSet is a fleet of simulated devices behind a shard scheduler.
type DeviceSet struct {
	devs []*Device

	mu    sync.Mutex
	stats SetStats

	// Scheduler scratch, owned by the one op that holds mu: the devices it
	// may still use, the item ranges still to run, and each device's share of
	// the current wave, indexed by device.
	elig    []int
	pending []Shard
	wave    []devWave
}

// devWave is one device's share of a wave: the shards queued on it and its
// clock before them; then, written by the one goroutine serving the device,
// how many shards it finished and the error that stopped it short.
type devWave struct {
	shards []Shard
	base   time.Duration
	done   int
	err    error
}

// NewDeviceSet builds n devices from one configuration. Each device gets its
// own resource manager, clock, and health machine, plus a stable device
// label ("dev0"…) that tags its trace spans. Fault injectors are attached
// per device by the caller — each device fails independently. A set of no
// member is the host's: Run serves every op with its Host callback, and
// SimTime is that loop's wall time.
func NewDeviceSet(cfg Config, fineRM bool, n int) (*DeviceSet, error) {
	if n < 0 {
		return nil, fmt.Errorf("gpu: negative device count %d", n)
	}
	if n > MaxDevices {
		return nil, fmt.Errorf("gpu: device set of %d exceeds MaxDevices %d", n, MaxDevices)
	}
	devs := make([]*Device, n)
	for i := range devs {
		d, err := New(cfg, fineRM)
		if err != nil {
			return nil, err
		}
		d.SetDeviceLabel(fmt.Sprintf("dev%d", i))
		devs[i] = d
	}
	return &DeviceSet{devs: devs, wave: make([]devWave, n)}, nil
}

// Size returns the device count.
func (s *DeviceSet) Size() int { return len(s.devs) }

// Device returns member i.
func (s *DeviceSet) Device(i int) *Device { return s.devs[i] }

// Devices returns the member devices (shared slice; do not mutate).
func (s *DeviceSet) Devices() []*Device { return s.devs }

// Stats returns a snapshot of the set counters.
func (s *DeviceSet) Stats() SetStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// SimTime is the set's modelled online clock: the merged parallel span plus
// the host-served time. It is the multi-device analogue of
// Device.Stats().SimTime() and what fl's cost accounting reads on every
// profile.
func (s *DeviceSet) SimTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.SimParallelTime + s.stats.HostSim
}

// ResetStats zeroes the set counters and every member device's counters.
// Health states survive, exactly as on a single device.
func (s *DeviceSet) ResetStats() {
	for _, d := range s.devs {
		d.ResetStats()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = SetStats{}
}

// SetRecorder attaches a span recorder to every member device under one
// trace party; spans stay distinguishable by their device label.
func (s *DeviceSet) SetRecorder(rec *obs.Recorder, party string) {
	for _, d := range s.devs {
		d.SetRecorder(rec, party)
	}
}

// SetHealthPolicy replaces the failure thresholds on every member device.
func (s *DeviceSet) SetHealthPolicy(p HealthPolicy) {
	for _, d := range s.devs {
		d.SetHealthPolicy(p)
	}
}

// AvgUtilization is the mean SM utilization across the member devices that
// launched anything.
func (s *DeviceSet) AvgUtilization() float64 {
	sum, n := 0.0, 0
	for _, d := range s.devs {
		st := d.Stats()
		if st.UtilizationCount > 0 {
			sum += st.AvgUtilization()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ShardOp is one sharded vector operation.
type ShardOp struct {
	// Name labels the op in errors and diagnostics.
	Name string
	// Items is the total item count to cover.
	Items int
	// Run executes one shard on member device devID, writing results for
	// exactly [sh.Lo, sh.Hi). It must be safe to call concurrently for
	// disjoint shards on distinct devices. A typed *KernelError re-queues
	// the shard; any other error aborts the op.
	Run func(devID int, sh Shard) error
	// Host executes one shard on the host — the last-resort fallback once
	// every device is excluded. Nil surfaces the final device error instead.
	Host func(sh Shard) error
}

// Run executes op across the set: split into one shard per eligible device,
// run the wave in parallel (each device walks its shards in order; a wave of
// several devices gives each its own goroutine, a wave of one runs on the
// caller's), then re-queue anything a faulted device left behind onto the
// remaining devices — subdivided, so stolen work is itself parallel — until
// the op completes, falling back to the host when no device remains.
//
// Accounting merges the per-device clocks into a measured parallel span:
// each wave contributes the maximum modelled-time delta across its
// participants to SimParallelTime and the sum of deltas to SimSequentialTime.
// Rework waves additionally accrue RebalanceSim; a stolen shard pays for
// its migration through the H2D copy its rerun makes.
//
// Bit-exactness: shards are contiguous item ranges and Run writes only its
// own range, so any schedule — including mid-batch death and rework — yields
// the byte-identical result of the sequential op. Ops serialize on the set;
// one op at a time owns every member clock.
func (s *DeviceSet) Run(op ShardOp) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Ops++
	if op.Items <= 0 {
		return nil
	}
	s.elig = s.elig[:0]
	for i := range s.devs {
		s.wave[i].err = nil
		s.elig = append(s.elig, i)
	}
	s.pending = append(s.pending[:0], Shard{Hi: op.Items})
	var lastErr error

	for wave := 0; len(s.pending) > 0; wave++ {
		// A device that failed a shard during this op is excluded from its
		// rework, so a flaky-but-alive device cannot reabsorb work it keeps
		// failing; a Failed one is excluded from the start.
		kept := s.elig[:0]
		for _, dev := range s.elig {
			if s.wave[dev].err == nil && s.devs[dev].Health() != DeviceFailed {
				kept = append(kept, dev)
			}
		}
		s.elig = kept
		if len(s.elig) == 0 {
			return s.runHostLocked(op, s.pending, lastErr)
		}
		// Distribute the pending ranges: each splits across every eligible
		// device, so wave 0 is the even initial split and rework waves spread
		// a dead device's remainder instead of serializing it on one peer.
		// Piece j goes to eligible device j, so the wave's devices are a
		// prefix of elig.
		busy := s.elig[:0]
		for _, rng := range s.pending {
			parts := min(len(s.elig), rng.Len())
			busy = s.elig[:max(len(busy), parts)]
			for j := 0; j < parts; j++ {
				sh, dev := rng.piece(parts, j), s.devs[s.elig[j]]
				w := &s.wave[s.elig[j]]
				if len(w.shards) == 0 {
					w.base = dev.Stats().SimTime()
				}
				w.shards = append(w.shards, sh)
				s.stats.Shards++
				if wave > 0 {
					s.stats.Steals++
				}
			}
		}
		s.pending = s.pending[:0]

		// One wave: per-device clocks advance independently.
		if len(busy) == 1 {
			s.serve(op.Run, busy[0])
		} else {
			run := op.Run
			var wg sync.WaitGroup
			for _, dev := range busy {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s.serve(run, dev)
				}()
			}
			wg.Wait()
		}

		// Merge the wave's clocks: parallel span is the slowest device's
		// delta, never the sum — an idle device charges nothing.
		var span, seq time.Duration
		var fatal error
		for _, dev := range busy {
			w := &s.wave[dev]
			delta := max(s.devs[dev].Stats().SimTime()-w.base, 0)
			seq += delta
			span = max(span, delta)
			switch {
			case w.err == nil:
			case !IsKernelError(w.err):
				if fatal == nil {
					fatal = fmt.Errorf("gpu: sharded %s on dev%d: %w", op.Name, dev, w.err)
				}
			default:
				s.pending = append(s.pending, w.shards[w.done:]...)
				if lastErr == nil {
					lastErr = fmt.Errorf("gpu: sharded %s: dev%d faulted", op.Name, dev)
				}
			}
			w.shards = w.shards[:0]
		}
		s.stats.SimParallelTime += span
		s.stats.SimSequentialTime += seq
		if wave > 0 {
			s.stats.RebalanceSim += span
		}
		if fatal != nil {
			return fatal
		}
	}
	return nil
}

// serve walks dev's queue for the current wave in order and stops at the
// first shard that fails: a typed *KernelError re-queues the rest, any other
// error aborts the op.
func (s *DeviceSet) serve(run func(devID int, sh Shard) error, dev int) {
	w := &s.wave[dev]
	for w.done = 0; w.done < len(w.shards); w.done++ {
		if w.err = run(dev, w.shards[w.done]); w.err != nil {
			return
		}
	}
}

// runHostLocked serves the remaining ranges on the host — all of every op on
// a set of no member, else what is left after every device was excluded —
// charging the wall time to the set's clock. It is the one place host wall
// time enters a modelled HE clock. Callers hold s.mu.
func (s *DeviceSet) runHostLocked(op ShardOp, pending []Shard, lastErr error) error {
	if op.Host == nil {
		if lastErr == nil {
			lastErr = fmt.Errorf("gpu: sharded %s: no eligible device", op.Name)
		}
		return lastErr
	}
	start := time.Now()
	for _, sh := range pending {
		if err := op.Host(sh); err != nil {
			return fmt.Errorf("gpu: sharded %s host fallback: %w", op.Name, err)
		}
		s.stats.HostShards++
	}
	s.stats.HostSim += time.Since(start)
	return nil
}

// PublishMetrics snapshots the set into a metrics registry: aggregate device
// counters under prefix (sums over members, so the single-device dashboards
// keep working), per-device rows under prefix+".dev<i>", and the scheduler
// counters (devset_shards, devset_steals, devset_rebalance_ns, the merged
// clocks).
func (s *DeviceSet) PublishMetrics(reg *obs.Registry, prefix string) {
	agg := s.StatsSum()
	publishDeviceStats(reg, prefix, agg)
	for i, d := range s.devs {
		d.PublishMetrics(reg, fmt.Sprintf("%s.dev%d", prefix, i))
	}
	st := s.Stats()
	reg.Set(prefix+".devset_devices", int64(len(s.devs)))
	reg.Set(prefix+".devset_ops", st.Ops)
	reg.Set(prefix+".devset_shards", st.Shards)
	reg.Set(prefix+".devset_steals", st.Steals)
	reg.Set(prefix+".devset_host_shards", st.HostShards)
	reg.Set(prefix+".devset_rebalance_ns", int64(st.RebalanceSim))
	reg.Set(prefix+".devset_parallel_ns", int64(st.SimParallelTime))
	reg.Set(prefix+".devset_sequential_ns", int64(st.SimSequentialTime))
	reg.Set(prefix+".devset_host_sim_ns", int64(st.HostSim))
}

// StatsSum aggregates the member devices' counters: additive fields sum,
// utilization averages across launching devices, and health reports the
// worst member state.
func (s *DeviceSet) StatsSum() Stats {
	var agg Stats
	agg.Health = DeviceHealthy
	for _, d := range s.devs {
		st := d.Stats()
		agg.KernelLaunches += st.KernelLaunches
		agg.ThreadsExecuted += st.ThreadsExecuted
		agg.WarpsExecuted += st.WarpsExecuted
		agg.BytesHostToDev += st.BytesHostToDev
		agg.BytesDevToHost += st.BytesDevToHost
		agg.SimTransferTime += st.SimTransferTime
		agg.SimComputeTime += st.SimComputeTime
		agg.SimFaultTime += st.SimFaultTime
		agg.WallKernelTime += st.WallKernelTime
		agg.UtilizationSum += st.UtilizationSum
		agg.UtilizationCount += st.UtilizationCount
		agg.LaunchFailures += st.LaunchFailures
		agg.WatchdogTrips += st.WatchdogTrips
		agg.FaultAborts += st.FaultAborts
		agg.FaultCorruptions += st.FaultCorruptions
		agg.FaultStalls += st.FaultStalls
		agg.FaultOOMs += st.FaultOOMs
		if healthRank(st.Health) > healthRank(agg.Health) {
			agg.Health = st.Health
		}
		if st.ConsecutiveFailures > agg.ConsecutiveFailures {
			agg.ConsecutiveFailures = st.ConsecutiveFailures
		}
	}
	return agg
}
