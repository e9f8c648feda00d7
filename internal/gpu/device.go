package gpu

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flbooster/internal/obs"
)

// Device is a simulated GPU. Kernel bodies run for real on a host goroutine
// pool (one worker per core by default) while a simulated clock integrates
// the paper's Eq. 10 cost model so experiments can report device-scale
// timings independent of the host.
type Device struct {
	cfg Config
	rm  *ResourceManager

	workers int
	sem     chan struct{} // bounds concurrently running blocks

	mu        sync.Mutex
	stats     Stats
	injector  *FaultInjector
	healthPol HealthPolicy
	launchSeq int64 // 1-based launch ordinal, attempted launches included

	rec      *obs.Recorder // nil when tracing is off: every record is one nil check
	recParty string        // trace process the device's spans belong to
	devID    string        // device label inside a DeviceSet ("dev0"…); empty standalone
}

// Stats aggregates device activity.
type Stats struct {
	KernelLaunches   int64
	ThreadsExecuted  int64
	WarpsExecuted    int64
	BytesHostToDev   int64
	BytesDevToHost   int64
	SimTransferTime  time.Duration // modelled PCIe time (Eq. 10 transfer term)
	SimComputeTime   time.Duration // modelled kernel time (Eq. 10 compute term)
	SimFaultTime     time.Duration // modelled time lost to faults: watchdog windows, retry backoff, degraded host execution
	WallKernelTime   time.Duration // real host time spent in kernel bodies
	UtilizationSum   float64       // Σ occupancy per launch, for averaging
	UtilizationCount int64

	// Fault/health observability (DESIGN.md §7). Per-kind counters record
	// *observed* failures: silent corruptions appear only once detected and
	// reported back via ReportFailure.
	LaunchFailures      int64
	WatchdogTrips       int64
	FaultAborts         int64
	FaultCorruptions    int64
	FaultStalls         int64
	FaultOOMs           int64
	Health              HealthState
	ConsecutiveFailures int
}

// SimTime is the total modelled device time with sequential stages:
// transfer in, compute, transfer out (the three stages of §V-B), plus any
// time lost to faults — degraded runs report their true cost.
func (s Stats) SimTime() time.Duration {
	return s.SimTransferTime + s.SimComputeTime + s.SimFaultTime
}

// AvgUtilization is the mean SM utilization across launches, in [0,1].
func (s Stats) AvgUtilization() float64 {
	if s.UtilizationCount == 0 {
		return 0
	}
	return s.UtilizationSum / float64(s.UtilizationCount)
}

// New creates a device from cfg with a resource manager using the
// fine-grained policy when fineRM is true (FLBooster) or the coarse policy
// otherwise (HAFLO-style).
func New(cfg Config, fineRM bool) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := cfg.HostWorkers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	d := &Device{
		cfg:       cfg,
		rm:        NewResourceManager(cfg, fineRM),
		workers:   w,
		sem:       make(chan struct{}, w),
		healthPol: DefaultHealthPolicy(),
	}
	d.stats.Health = DeviceHealthy
	return d, nil
}

// MustNew is New for known-good configs; it panics on error.
func MustNew(cfg Config, fineRM bool) *Device {
	d, err := New(cfg, fineRM)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Workers returns how many host goroutines run the device's kernel lanes.
func (d *Device) Workers() int { return d.workers }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the device counters (between experiment phases). Health
// state survives the reset — a failed device does not heal by bookkeeping.
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	health, consec := d.stats.Health, d.stats.ConsecutiveFailures
	d.stats = Stats{Health: health, ConsecutiveFailures: consec}
}

// SetRecorder attaches (or, with nil, detaches) a span recorder. Every
// kernel launch, PCIe copy, and fault-time charge then lands as a sim-time
// span under the given trace party.
func (d *Device) SetRecorder(rec *obs.Recorder, party string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rec = rec
	d.recParty = party
}

// SetDeviceLabel names the device inside a multi-device set; the label tags
// every kernel/copy/fault span the device emits.
func (d *Device) SetDeviceLabel(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.devID = id
}

// recordLocked emits one span on the device's sim timeline. Callers hold
// d.mu; zero-duration spans are skipped to keep traces readable.
func (d *Device) recordLocked(phase, lane string, start, dur time.Duration) {
	if d.rec == nil || dur <= 0 {
		return
	}
	d.rec.Record(obs.Span{Phase: phase, Party: d.recParty, Lane: lane, Device: d.devID, Start: start, Dur: dur})
}

// PublishMetrics snapshots the device counters into a metrics registry
// under the given prefix — launches, bytes, sim clocks, fault/watchdog
// events, the DESIGN.md §9 pull-publishing contract.
func (d *Device) PublishMetrics(reg *obs.Registry, prefix string) {
	publishDeviceStats(reg, prefix, d.Stats())
}

// publishDeviceStats writes one Stats snapshot under a prefix — shared by
// standalone devices, DeviceSet members, and the set's aggregate row.
func publishDeviceStats(reg *obs.Registry, prefix string, s Stats) {
	reg.Set(prefix+".launches", s.KernelLaunches)
	reg.Set(prefix+".threads", s.ThreadsExecuted)
	reg.Set(prefix+".warps", s.WarpsExecuted)
	reg.Set(prefix+".bytes_h2d", s.BytesHostToDev)
	reg.Set(prefix+".bytes_d2h", s.BytesDevToHost)
	reg.Set(prefix+".sim_transfer_ns", int64(s.SimTransferTime))
	reg.Set(prefix+".sim_compute_ns", int64(s.SimComputeTime))
	reg.Set(prefix+".sim_fault_ns", int64(s.SimFaultTime))
	reg.Set(prefix+".launch_failures", s.LaunchFailures)
	reg.Set(prefix+".watchdog_trips", s.WatchdogTrips)
	reg.Set(prefix+".fault_aborts", s.FaultAborts)
	reg.Set(prefix+".fault_corruptions", s.FaultCorruptions)
	reg.Set(prefix+".fault_stalls", s.FaultStalls)
	reg.Set(prefix+".fault_ooms", s.FaultOOMs)
	reg.SetGauge(prefix+".avg_utilization", s.AvgUtilization())
	reg.SetGauge(prefix+".health", healthRank(s.Health))
}

// healthRank maps the health machine to a numeric gauge: 0 healthy,
// 1 degraded, 2 failed.
func healthRank(h HealthState) float64 {
	switch h {
	case DeviceDegraded:
		return 1
	case DeviceFailed:
		return 2
	default:
		return 0
	}
}

// SetFaultInjector attaches (or, with nil, detaches) a fault injector.
func (d *Device) SetFaultInjector(fi *FaultInjector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.injector = fi
}

// Injector returns the attached fault injector, nil when none.
func (d *Device) Injector() *FaultInjector {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.injector
}

// SetHealthPolicy replaces the consecutive-failure thresholds.
func (d *Device) SetHealthPolicy(p HealthPolicy) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.healthPol = p.withDefaults()
}

// Health returns the device health state.
func (d *Device) Health() HealthState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats.Health
}

// ReportFailure feeds an externally detected launch failure — typically a
// result-verification miss on a kernel that reported success — into the
// health machine and the per-kind counters.
func (d *Device) ReportFailure(kernel string, kind FaultKind) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.recordFailureLocked(kind)
}

// ChargeFaultTime adds externally incurred fault cost — retry backoff and
// degraded-mode host execution — to the modelled clock (Eq. 10 terms stay
// untouched; the loss is reported separately as SimFaultTime).
func (d *Device) ChargeFaultTime(dur time.Duration) {
	if dur <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.recordLocked("fault", "gpu.fault", d.stats.SimTime(), dur)
	d.stats.SimFaultTime += dur
}

// recordFailureLocked counts one failed launch and advances the health
// machine. Callers hold d.mu.
func (d *Device) recordFailureLocked(kind FaultKind) {
	d.stats.LaunchFailures++
	switch kind {
	case FaultAbort:
		d.stats.FaultAborts++
	case FaultCorrupt:
		d.stats.FaultCorruptions++
	case FaultStall:
		d.stats.FaultStalls++
	case FaultOOM:
		d.stats.FaultOOMs++
	}
	if d.stats.Health == DeviceFailed {
		return
	}
	d.stats.ConsecutiveFailures++
	switch {
	case d.stats.ConsecutiveFailures >= d.healthPol.FailAfter:
		d.stats.Health = DeviceFailed
	case d.stats.ConsecutiveFailures >= d.healthPol.DegradeAfter:
		d.stats.Health = DeviceDegraded
	}
}

// recordSuccessLocked resets the failure streak; a Degraded device
// recovers, a Failed one never does. Callers hold d.mu.
func (d *Device) recordSuccessLocked() {
	d.stats.ConsecutiveFailures = 0
	if d.stats.Health == DeviceDegraded {
		d.stats.Health = DeviceHealthy
	}
}

// CopyToDevice accounts a host→device transfer of n bytes.
func (d *Device) CopyToDevice(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	dur := d.transferTime(n)
	d.recordLocked("h2d_copy", "gpu.h2d", d.stats.SimTime(), dur)
	d.stats.BytesHostToDev += n
	d.stats.SimTransferTime += dur
}

// CopyFromDevice accounts a device→host transfer of n bytes.
func (d *Device) CopyFromDevice(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	dur := d.transferTime(n)
	d.recordLocked("d2h_copy", "gpu.d2h", d.stats.SimTime(), dur)
	d.stats.BytesDevToHost += n
	d.stats.SimTransferTime += dur
}

func (d *Device) transferTime(n int64) time.Duration {
	sec := d.cfg.TransferLatencySec + float64(n)/d.cfg.TransferBytesPerSec
	return time.Duration(sec * float64(time.Second))
}

// Body is the work of one launch: Lanes computes items [lo, hi), a lane group
// of at most LaneGroup items — the unit a host kernel that runs independent
// items side by side in one register fills (internal/mpint's amm52x8). A body
// that can also model a silent corruption implements Poisoner.
type Body interface {
	Lanes(lo, hi int)
}

// LaneGroup is the most items a Body computes a call: the eight 64-bit lanes
// of a ZMM register.
const LaneGroup = 8

// Poisoner is a Body whose results an attached FaultInjector can corrupt
// after the kernel ran (the transient bit-flip model): Poison perturbs one
// item's result. The launch still reports success — only downstream
// verification can catch it. A corrupt fault on a body that is no Poisoner
// fails visibly instead.
type Poisoner interface {
	Poison(item int)
}

// LaneFunc is a function of one item as a Body.
type LaneFunc func(item int)

// Lanes implements Body, an item at a time.
func (f LaneFunc) Lanes(lo, hi int) {
	for i := lo; i < hi; i++ {
		f(i)
	}
}

// Kernel describes one launch.
type Kernel struct {
	// Name labels the launch in diagnostics.
	Name string
	// Items is the number of independent work items (e.g. ciphertexts).
	Items int
	// RegsPerThread is the kernel's register demand, which drives occupancy.
	RegsPerThread int
	// SharedPerBlock is per-block shared memory in bytes.
	SharedPerBlock int
	// WordOps is the modelled 32-bit multiply-add count *per item*, used by
	// the simulated clock. Callers compute it from the arithmetic they run
	// (e.g. CIOS cost k²+k per Montgomery multiplication).
	WordOps int64
	// DivergentLanes reports how many lanes of a warp take a divergent
	// branch; the resource manager converts this into a cost factor.
	DivergentLanes int
	// Body is what the launch runs, and — when it is a Poisoner — how an
	// injected corruption reaches its results: one interface value, so stating
	// a launch over a descriptor allocates nothing.
	Body Body
}

// Launch executes k.Body.Lanes over every item of the kernel,
// distributing items across the host worker pool, and charges the simulated
// clock with the Eq. 10 compute term. It is the data-parallel path used for
// "one thread block per ciphertext" kernels. It returns the launch's modelled
// occupancy. A launch allocates nothing (TestLaunchAllocatesNothing;
// BenchmarkLaunch on the two-core reference box: 250 ns a launch of one chunk,
// 0.9–1.1 µs one of a chunk a worker, as through the closures this replaced,
// which took 152 B), and it returns only once every lane has.
//
// Failure surface: a Failed device refuses the launch outright, and an
// attached FaultInjector may abort, stall, corrupt, or OOM it. Every fault but
// a corruption the body can carry silently is decided before the body runs,
// returns a typed *KernelError and drives the health machine; a stall also
// trips the watchdog, which charges WatchdogWindow to the modelled clock.
func (d *Device) Launch(k Kernel) (float64, error) {
	if k.Items < 0 {
		return 0, fmt.Errorf("gpu: kernel %q has negative item count", k.Name)
	}
	if k.RegsPerThread > d.cfg.MaxRegistersPerThread {
		return 0, fmt.Errorf("gpu: kernel %q wants %d regs/thread, device caps at %d",
			k.Name, k.RegsPerThread, d.cfg.MaxRegistersPerThread)
	}
	if k.Items == 0 {
		return 0, nil
	}

	d.mu.Lock()
	if d.stats.Health == DeviceFailed {
		attempt := d.launchSeq + 1
		d.mu.Unlock()
		return 0, &KernelError{Kind: FaultDeviceFailed, Kernel: k.Name, Attempt: attempt}
	}
	d.launchSeq++
	attempt := d.launchSeq
	injector := d.injector
	d.mu.Unlock()

	fault, poisonItem := FaultKind(""), -1
	if injector != nil {
		fault, poisonItem = injector.decide(k.Items)
	}

	if _, ok := k.Body.(Poisoner); fault != "" && (fault != FaultCorrupt || !ok) {
		// An abort yields no results, an OOM is a working set the device cannot
		// hold, a stall hangs until the watchdog gives it up, and a corruption
		// with nothing to poison is visible as a hard fault.
		d.failLaunch(k.Name, fault)
		return 0, &KernelError{Kind: fault, Kernel: k.Name, Attempt: attempt}
	}

	blockSize := d.rm.PickBlockSize(k.Items, k.RegsPerThread, k.SharedPerBlock)
	occ := d.rm.Occupancy(blockSize, k.RegsPerThread, k.SharedPerBlock)
	execFactor, regFactor := d.rm.BranchCost(k.DivergentLanes)
	if regFactor > 1 {
		// Splitting the warp doubles register pressure, reducing occupancy.
		occ = d.rm.Occupancy(blockSize, int(float64(k.RegsPerThread)*regFactor), k.SharedPerBlock)
	}

	start := time.Now()
	st := d.newLaunch(k)
	if st.chunks == 1 {
		// One chunk: the launch never leaves the launching goroutine.
		st.runChunk()
	} else {
		st.start()
		<-st.done
	}
	st.release()
	wall := time.Since(start)

	if fault == FaultCorrupt {
		// Silent from the device's point of view: the launch succeeds and the
		// health machine sees no failure until verification reports one.
		k.Body.(Poisoner).Poison(poisonItem)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	d.recordSuccessLocked()
	d.stats.KernelLaunches++
	d.stats.ThreadsExecuted += int64(k.Items)
	d.stats.WarpsExecuted += int64((k.Items + d.cfg.WarpSize - 1) / d.cfg.WarpSize)
	d.stats.WallKernelTime += wall
	d.stats.UtilizationSum += occ
	d.stats.UtilizationCount++
	// Eq. 10 compute term: total word-ops divided by the device's effective
	// throughput at this occupancy, times the divergence penalty.
	if k.WordOps > 0 && occ > 0 {
		throughput := d.cfg.WordOpsPerSec * float64(d.cfg.SMs) * occ
		sec := float64(k.WordOps) * float64(k.Items) / throughput * execFactor
		dur := time.Duration(sec * float64(time.Second))
		d.recordLocked(k.Name, "gpu.kernel", d.stats.SimTime(), dur)
		d.stats.SimComputeTime += dur
	}
	return occ, nil
}

// failLaunch records one failed launch under the device mutex. A stall trips
// the watchdog, whose window is modelled device time lost to the hang.
func (d *Device) failLaunch(kernel string, kind FaultKind) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if kind == FaultStall {
		d.stats.WatchdogTrips++
		d.recordLocked(kernel+".watchdog", "gpu.fault", d.stats.SimTime(), WatchdogWindow)
		d.stats.SimFaultTime += WatchdogWindow
	}
	d.recordFailureLocked(kind)
}

// launchState is what the goroutines of one launch share: the body, the
// items cut into contiguous chunks that each goroutine claims one of, and the
// count of workers still running that ends it. A launch of several chunks runs
// them all on workers and its launcher waits: a launcher that took a chunk
// itself measured 20% slower a step on epoch_homo_lr_2048 (its lanes ran
// 1.2–2.4× the CPU time of the same lanes on a worker, on the two-vCPU
// reference box) for the goroutine start it saved. States are pooled: the
// launcher puts its state back once done has fired, after which no worker
// reads it. A worker is started as `go st.work()` on a func value bound when
// the state was made (a go statement on a method with arguments allocates a
// closure for them), so a launch allocates nothing.
type launchState struct {
	body   Body
	items  int
	chunk  int // items a chunk
	chunks int

	next atomic.Int32  // the next chunk to claim
	left atomic.Int32  // workers still running: the one that takes it to zero signals done
	done chan struct{} // buffered, one token a launch
	work func()        // st.worker
}

var launchStates sync.Pool // *launchState

// newLaunch takes a state from the pool and cuts k's items into at most one
// chunk a host worker.
func (d *Device) newLaunch(k Kernel) *launchState {
	workers := min(d.workers, k.Items)
	st, _ := launchStates.Get().(*launchState)
	if st == nil {
		st = &launchState{done: make(chan struct{}, 1)}
		st.work = st.worker
	}
	st.body, st.items = k.Body, k.Items
	st.chunk = (k.Items + workers - 1) / workers
	st.chunks = (k.Items + st.chunk - 1) / st.chunk
	return st
}

// start starts a worker a chunk.
func (st *launchState) start() {
	st.left.Store(int32(st.chunks))
	for n := st.chunks; n > 0; n-- {
		go st.work()
	}
}

// runChunk claims a chunk and runs its items a lane group at a time.
func (st *launchState) runChunk() {
	lo := (int(st.next.Add(1)) - 1) * st.chunk
	for i, hi := lo, min(lo+st.chunk, st.items); i < hi; i += LaneGroup {
		st.body.Lanes(i, min(i+LaneGroup, hi))
	}
}

func (st *launchState) worker() {
	st.runChunk()
	if st.left.Add(-1) == 0 {
		st.done <- struct{}{}
	}
}

// release clears the finished launch's state and pools it.
func (st *launchState) release() {
	st.body = nil
	st.next.Store(0)
	launchStates.Put(st)
}

// ThreadCtx is the per-thread view inside a cooperative launch: the thread
// and block index, the block's shared memory, and a barrier for intra-block
// synchronization (the "inter-thread communication" of the paper's
// Algorithm 2).
type ThreadCtx struct {
	Block   int
	Thread  int
	Threads int
	Shared  []uint32
	bar     *barrier
}

// SyncThreads blocks until every thread in the block reaches the barrier.
func (t *ThreadCtx) SyncThreads() { t.bar.await() }

// LaunchCooperative runs a kernel whose threads within a block cooperate
// through shared memory and barriers — the execution model of the paper's
// limb-parallel Montgomery multiplication (Algorithm 2). blocks × threads
// goroutines are spawned, block-by-block through the worker semaphore.
// sharedWords is the size of each block's shared memory in 32-bit words.
func (d *Device) LaunchCooperative(name string, blocks, threads, sharedWords int, fn func(*ThreadCtx)) error {
	if threads <= 0 || blocks < 0 {
		return fmt.Errorf("gpu: cooperative kernel %q has invalid geometry %dx%d", name, blocks, threads)
	}
	if threads > d.cfg.MaxThreadsPerSM {
		return fmt.Errorf("gpu: cooperative kernel %q block of %d exceeds SM capacity %d",
			name, threads, d.cfg.MaxThreadsPerSM)
	}
	d.mu.Lock()
	if d.stats.Health == DeviceFailed {
		attempt := d.launchSeq + 1
		d.mu.Unlock()
		return &KernelError{Kind: FaultDeviceFailed, Kernel: name, Attempt: attempt}
	}
	d.launchSeq++
	d.mu.Unlock()
	var wg sync.WaitGroup
	for b := 0; b < blocks; b++ {
		d.sem <- struct{}{}
		wg.Add(1)
		go func(b int) {
			defer func() { <-d.sem; wg.Done() }()
			shared := make([]uint32, sharedWords)
			bar := newBarrier(threads)
			var tw sync.WaitGroup
			for t := 0; t < threads; t++ {
				tw.Add(1)
				go func(t int) {
					defer tw.Done()
					fn(&ThreadCtx{Block: b, Thread: t, Threads: threads, Shared: shared, bar: bar})
				}(t)
			}
			tw.Wait()
		}(b)
	}
	wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.KernelLaunches++
	d.stats.ThreadsExecuted += int64(blocks * threads)
	d.stats.WarpsExecuted += int64(blocks * ((threads + d.cfg.WarpSize - 1) / d.cfg.WarpSize))
	return nil
}

// barrier is a reusable counting barrier for one block's threads.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	phase   int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	b.mu.Lock()
	phase := b.phase
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.phase++
		b.cond.Broadcast()
	} else {
		for b.phase == phase {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}
