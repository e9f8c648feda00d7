package gpu

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flbooster/internal/obs"
)

// Device is a simulated GPU. Kernel bodies run for real on the process-wide
// host worker pool (cut into one chunk a scheduler by default) while a
// simulated clock integrates the paper's Eq. 10 cost model so experiments can
// report device-scale timings independent of the host.
type Device struct {
	cfg Config
	rm  *ResourceManager

	workers int

	mu        sync.Mutex
	stats     Stats
	injector  *FaultInjector
	healthPol HealthPolicy
	launchSeq int64 // 1-based launch ordinal, attempted launches included

	rec      *obs.Recorder // nil when tracing is off: every record is one nil check
	recParty string        // trace process the device's spans belong to
	devID    string        // device label inside an executor's fleet ("dev0"…); empty standalone
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
	SimFaultTime     time.Duration // modelled time lost to faults: FaultStalls watchdog windows, the rest retry backoff
	WallKernelTime   time.Duration // real host time spent in kernel bodies
	UtilizationSum   float64       // Σ occupancy per launch, for averaging
	UtilizationCount int64

	// Fault/health observability (DESIGN.md §7), the one record of a device
	// fault. Per-kind counters record *observed* failures: a silent
	// corruption counts once verification reports it (ReportFailure), so
	// FaultCorruptions is what verification caught; a corrupt draw on a body
	// that cannot carry it fails the launch and counts as an abort. Each
	// stall is one watchdog trip.
	LaunchFailures      int64
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
		w = runtime.GOMAXPROCS(0) // the schedulers there are to run chunks, as many as the pool holds
	}
	d := &Device{
		cfg:       cfg,
		rm:        NewResourceManager(cfg, fineRM),
		workers:   w,
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

// Workers returns how many chunks a launch's lanes are cut into at most.
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

// SetDeviceLabel names the device inside an executor's fleet; the label tags
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

// Sum is a fleet's counters: the additive fields summed — so AvgUtilization
// is the fleet's launch-weighted mean — Health the worst member's and
// ConsecutiveFailures the longest streak.
func Sum(devs []*Device) Stats {
	agg := Stats{Health: DeviceHealthy}
	for _, d := range devs {
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
		agg.FaultAborts += st.FaultAborts
		agg.FaultCorruptions += st.FaultCorruptions
		agg.FaultStalls += st.FaultStalls
		agg.FaultOOMs += st.FaultOOMs
		if st.Health == DeviceFailed {
			agg.Health = DeviceFailed
		}
		agg.ConsecutiveFailures = max(agg.ConsecutiveFailures, st.ConsecutiveFailures)
	}
	return agg
}

// Publish writes the counters into a metrics registry under prefix —
// launches, bytes, sim clocks, fault/watchdog events, the DESIGN.md §9
// pull-publishing contract — for one device or a fleet's Sum alike.
func (s Stats) Publish(reg *obs.Registry, prefix string) {
	reg.Set(prefix+".launches", s.KernelLaunches)
	reg.Set(prefix+".threads", s.ThreadsExecuted)
	reg.Set(prefix+".warps", s.WarpsExecuted)
	reg.Set(prefix+".bytes_h2d", s.BytesHostToDev)
	reg.Set(prefix+".bytes_d2h", s.BytesDevToHost)
	reg.Set(prefix+".sim_transfer_ns", int64(s.SimTransferTime))
	reg.Set(prefix+".sim_compute_ns", int64(s.SimComputeTime))
	reg.Set(prefix+".sim_fault_ns", int64(s.SimFaultTime))
	reg.Set(prefix+".launch_failures", s.LaunchFailures)
	reg.Set(prefix+".fault_aborts", s.FaultAborts)
	reg.Set(prefix+".fault_corruptions", s.FaultCorruptions)
	reg.Set(prefix+".fault_stalls", s.FaultStalls)
	reg.Set(prefix+".fault_ooms", s.FaultOOMs)
	reg.SetGauge(prefix+".avg_utilization", s.AvgUtilization())
	reg.SetGauge(prefix+".health", healthRank(s.Health))
}

// healthRank maps the health machine to a numeric gauge: 0 healthy,
// 1 failed.
func healthRank(h HealthState) float64 {
	if h == DeviceFailed {
		return 1
	}
	return 0
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

// SetHealthPolicy replaces the consecutive-failure threshold.
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

// ReportFailure feeds an externally detected launch failure — a
// result-verification miss on a kernel that reported success — into the
// health machine and the per-kind counters.
func (d *Device) ReportFailure(kind FaultKind) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.recordFailureLocked(kind)
}

// ChargeFaultTime adds externally incurred fault cost — the checked layer's
// retry backoff — to the modelled clock (Eq. 10 terms stay untouched; the
// loss is reported separately as SimFaultTime).
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
	if d.stats.ConsecutiveFailures >= d.healthPol.FailAfter {
		d.stats.Health = DeviceFailed
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
// verification can catch it. A corrupt draw on a body that is no Poisoner
// fails the launch as an abort.
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
	// Job, when set, takes the body: the launch is decided, charged and
	// counted as one that runs at once, and its body (with the item an
	// injected corruption poisons) is recorded in the job, which runs it
	// later with the other launches it holds.
	Job *Job
}

// Launch executes k.Body.Lanes over every item of the kernel,
// distributing items across the host worker pool, and charges the simulated
// clock with the Eq. 10 compute term. It is the data-parallel path used for
// "one thread block per ciphertext" kernels. It returns the launch's modelled
// occupancy. A launch allocates nothing (TestLaunchAllocatesNothing;
// BenchmarkLaunch on the two-core reference box, an empty body: ≈270 ns a
// launch of one chunk, ≈1.1–1.3 µs one of a chunk a pool worker, as when each
// chunk started a goroutine — what the pool saves is the stack a real body
// grew on every such goroutine), and it returns only once every lane has —
// unless k.Job is set, when the launch is decided, charged and counted here
// and its body is left to the job (Job.Run).
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

	if _, ok := k.Body.(Poisoner); fault == FaultCorrupt && !ok {
		fault = FaultAbort // nothing to poison: what is observed is a failed launch
	}
	if fault != "" && fault != FaultCorrupt {
		// An abort yields no results, an OOM is a working set the device cannot
		// hold, and a stall hangs until the watchdog gives it up.
		d.failLaunch(k.Name, fault)
		return 0, &KernelError{Kind: fault, Kernel: k.Name, Attempt: attempt}
	}

	blockSize := d.rm.PickBlockSize(k.Items, k.RegsPerThread)
	occ := d.rm.Occupancy(blockSize, k.RegsPerThread)
	execFactor, regFactor := d.rm.BranchCost(k.DivergentLanes)
	if regFactor > 1 {
		// Splitting the warp doubles register pressure, reducing occupancy.
		occ = d.rm.Occupancy(blockSize, int(float64(k.RegsPerThread)*regFactor))
	}

	var wall time.Duration
	if k.Job != nil {
		k.Job.add(Part{Body: k.Body, Items: k.Items, dev: d, poison: poisonItem})
	} else {
		start := time.Now()
		runLanes(k.Body, k.Items, (k.Items+d.workers-1)/d.workers, d.workers)
		wall = time.Since(start)
		if fault == FaultCorrupt {
			// Silent from the device's point of view: the launch succeeds and the
			// health machine sees no failure until verification reports one.
			k.Body.(Poisoner).Poison(poisonItem)
		}
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.ConsecutiveFailures = 0
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
		d.recordLocked(kernel+".watchdog", "gpu.fault", d.stats.SimTime(), WatchdogWindow)
		d.stats.SimFaultTime += WatchdogWindow
	}
	d.recordFailureLocked(kind)
}

// launchState is what the workers of one launch share: the body, the items
// cut into contiguous chunks that the workers claim one at a time until none
// is left, and the count of workers still claiming that ends it. A launch of
// several chunks hands them all to the pool and its launcher waits: a
// launcher that took a chunk itself measured 20% slower a step on
// epoch_homo_lr_2048 (its lanes ran 1.2–2.4× the CPU time of the same lanes
// on a worker, on the two-vCPU reference box). States are pooled: the
// launcher puts its state back once done has fired, after which no worker
// reads it, and a worker is handed the state's pointer on a channel, so a
// launch allocates nothing.
type launchState struct {
	body   Body
	items  int
	chunk  int // items a chunk
	chunks int

	next atomic.Int32  // the next chunk to claim
	left atomic.Int32  // workers still claiming: the one that takes it to zero signals done
	done chan struct{} // buffered, one token a launch
}

var launchStates sync.Pool // *launchState

// workers is the process-wide host pool every launch's and job's chunks run
// on: one goroutine a scheduler (GOMAXPROCS when it is first needed), started
// once and never stopped, so a chunk lands on a goroutine whose stack has
// already grown — a goroutine started a chunk grew its stack on every launch,
// runtime.copystack ≈15% of cohort_tree_128's CPU.
var workers struct {
	once   sync.Once
	states chan *launchState // one send a worker a launch needs
}

// runLanes runs body over items [0, items) in contiguous chunks of `chunk`
// items, each run a lane group at a time, claimed by at most `helpers` pool
// workers, and returns once every lane has. One chunk never leaves the
// calling goroutine.
func runLanes(body Body, items, chunk, helpers int) {
	st := newLaunch(body, items, chunk)
	if helpers = min(helpers, st.chunks); helpers <= 1 {
		st.claim()
	} else {
		workers.once.Do(startWorkers)
		st.left.Store(int32(helpers))
		for n := helpers; n > 0; n-- {
			workers.states <- st
		}
		<-st.done
	}
	st.release()
}

func startWorkers() {
	n := runtime.GOMAXPROCS(0)
	// A few launches a worker, so a launcher hands its launch over without
	// waiting on a busy worker for each send.
	workers.states = make(chan *launchState, 4*n)
	for ; n > 0; n-- {
		go func() {
			for st := range workers.states {
				st.claim()
				if st.left.Add(-1) == 0 {
					st.done <- struct{}{}
				}
			}
		}()
	}
}

// newLaunch takes a state from the pool and cuts the items into chunks of at
// most `chunk` items.
func newLaunch(body Body, items, chunk int) *launchState {
	st, _ := launchStates.Get().(*launchState)
	if st == nil {
		st = &launchState{done: make(chan struct{}, 1)}
	}
	st.body, st.items, st.chunk = body, items, max(chunk, 1)
	st.chunks = (items + st.chunk - 1) / st.chunk
	return st
}

// claim runs chunks, a lane group at a time, until none is left to claim.
func (st *launchState) claim() {
	for {
		lo := (int(st.next.Add(1)) - 1) * st.chunk
		if lo >= st.items {
			return
		}
		for i, hi := lo, min(lo+st.chunk, st.items); i < hi; i += LaneGroup {
			st.body.Lanes(i, min(i+LaneGroup, hi))
		}
	}
}

// release clears the finished launch's state and pools it.
func (st *launchState) release() {
	st.body = nil
	st.next.Store(0)
	launchStates.Put(st)
}

// Job is the host half of launches issued with Kernel.Job set: each was
// decided, charged and counted by its device when it was issued, and left its
// body here. Run then executes them as one host job, so the lanes of many
// small launches fill lane groups and workers together. A job is for one
// issuer at a time; launches served on several devices at once may add to it
// concurrently.
type Job struct {
	mu    sync.Mutex
	parts []Part
}

// Part is one launch a job holds: its body and item count, and what Run
// finishes it with — the item an injected corruption poisons once the body
// ran (−1 for none), and the device whose kernel wall time its share of the
// job's wall time joins.
type Part struct {
	Body   Body
	Items  int
	dev    *Device
	poison int
}

func (j *Job) add(p Part) {
	j.mu.Lock()
	j.parts = append(j.parts, p)
	j.mu.Unlock()
}

// Parts returns the launches the job holds, in the order they were issued on
// each device. The slice is the job's until Run.
func (j *Job) Parts() []Part { return j.parts }

// Run executes body over items [0, items) on at most `helpers` pool workers
// — the lanes of every part, laid end to end as the caller's body maps them,
// in chunks of a lane group, so a worker held up by another process leaves
// its share to the others, or smaller where that is what gives every helper
// a chunk — then poisons the items the parts' injected corruptions chose,
// adds each part's share of the wall time to its device's kernel wall, and
// empties the job.
func (j *Job) Run(body Body, items, helpers int) {
	start := time.Now()
	if items > 0 {
		runLanes(body, items, min(LaneGroup, (items+helpers-1)/max(helpers, 1)), helpers)
	}
	wall := time.Since(start)
	for _, p := range j.parts {
		if p.poison >= 0 {
			p.Body.(Poisoner).Poison(p.poison)
		}
		p.dev.mu.Lock()
		p.dev.stats.WallKernelTime += wall * time.Duration(p.Items) / time.Duration(max(items, 1))
		p.dev.mu.Unlock()
	}
	clear(j.parts)
	j.parts = j.parts[:0]
}
