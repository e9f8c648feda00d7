package fl

import (
	"sync"
	"time"

	"flbooster/internal/obs"
)

// CostSnapshot is the per-run cost anatomy the paper reports: HE-operation
// time, communication time, and everything else, plus the operation and byte
// counts behind the throughput and compression tables. Wall times are real
// host measurements at the experiment's (possibly reduced) scale; Sim times
// come from the device and link models and represent the paper's
// full-hardware testbed (see DESIGN.md §1, "Wall-clock scale").
type CostSnapshot struct {
	// HEWall is host time spent inside HE batches; HESim is the modelled
	// time for the same batches, the device set's clock advance on every
	// profile — on a CPU profile's set of no member the host loop's wall
	// time, HEWall less what the batch spends outside the executor.
	HEWall time.Duration
	HESim  time.Duration
	// HEOps counts HE operations (encrypt/decrypt/hom-add elements). A
	// BroadcastSums batch counts one per non-zero term, a ciphertext-scalar
	// product, whichever backend ran it and however few multiplies the kernel
	// spent on it.
	HEOps int64
	// Instances counts logical gradient values pushed through HE — the
	// numerator of Table IV's throughput. With batch compression this is
	// larger than HEOps. A BroadcastSums batch adds its non-zero terms, so on
	// the vertical models' host side instances/s keeps meaning
	// ciphertext-scalar products a second.
	Instances int64

	// CommSim is modelled wire time; CommBytes/CommMsgs the raw traffic.
	CommSim   time.Duration
	CommBytes int64
	CommMsgs  int64
	// RetryMsgs counts retransmission attempts; their bytes and wire time
	// are already folded into the Comm totals above.
	RetryMsgs int64

	// OtherWall is host time in model computation (gradients, trees,
	// forward/backward passes) outside HE and communication.
	OtherWall time.Duration

	// EncodeWall is host time spent quantizing and packing gradients into
	// plaintexts; EncodeSim is the modelled client-side cost of the same work
	// and EncodeVals the values encoded. Encode used to hide inside the
	// untimed gap before each HE batch; the round anatomy needs it split out.
	EncodeWall time.Duration
	EncodeSim  time.Duration
	EncodeVals int64

	// Ciphertexts counts ciphertexts produced (the compression denominator).
	Ciphertexts int64
	// Plainvals counts plaintext values before packing (the numerator).
	Plainvals int64
}

// encodeSimPerValue is the modelled client-side cost of quantizing and
// packing one gradient value into an HE plaintext. A fixed constant rather
// than a wall measurement so the per-phase round anatomy is deterministic
// across runs and machines.
const encodeSimPerValue = 35 * time.Nanosecond

// encodeSim returns the modelled encode cost of n gradient values.
func encodeSim(n int) time.Duration { return time.Duration(n) * encodeSimPerValue }

// Costs is the concurrency-safe accumulator behind CostSnapshot.
// Context.PublishMetrics reads its snapshot into the metrics registry.
type Costs struct {
	mu sync.Mutex
	s  CostSnapshot
}

// AddHE accounts one HE batch.
func (c *Costs) AddHE(wall, sim time.Duration, ops, instances int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.HEWall += wall
	c.s.HESim += sim
	c.s.HEOps += ops
	c.s.Instances += instances
}

// AddComm accounts one transfer.
func (c *Costs) AddComm(sim time.Duration, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.CommSim += sim
	c.s.CommBytes += bytes
	c.s.CommMsgs++
}

// AddRetry accounts one retransmission attempt: the wasted bytes and wire
// time join the communication totals so degraded rounds report their true
// cost, and the retry counter records how much of it was rework.
func (c *Costs) AddRetry(sim time.Duration, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.CommSim += sim
	c.s.CommBytes += bytes
	c.s.CommMsgs++
	c.s.RetryMsgs++
}

// AddOther accounts model-computation time.
func (c *Costs) AddOther(wall time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.OtherWall += wall
}

// AddEncode accounts one quantize/pack step: host time measured, sim time
// modelled, vals the gradient values encoded.
func (c *Costs) AddEncode(wall, sim time.Duration, vals int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.EncodeWall += wall
	c.s.EncodeSim += sim
	c.s.EncodeVals += vals
}

// AddCompression accounts a packing step: plainvals in, ciphertexts out.
func (c *Costs) AddCompression(plainvals, ciphertexts int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Plainvals += plainvals
	c.s.Ciphertexts += ciphertexts
}

// Snapshot returns a copy safe to read.
func (c *Costs) Snapshot() CostSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s
}

// Reset zeroes every counter.
func (c *Costs) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s = CostSnapshot{}
}

// publish writes the snapshot under prefix as absolute counters: every
// field but the three host-clock walls.
func (s CostSnapshot) publish(reg *obs.Registry, prefix string) {
	reg.Set(prefix+".he_ops", s.HEOps)
	reg.Set(prefix+".instances", s.Instances)
	reg.Set(prefix+".he_sim_ns", int64(s.HESim))
	reg.Set(prefix+".comm_msgs", s.CommMsgs)
	reg.Set(prefix+".comm_bytes", s.CommBytes)
	reg.Set(prefix+".comm_sim_ns", int64(s.CommSim))
	reg.Set(prefix+".retry_msgs", s.RetryMsgs)
	reg.Set(prefix+".plainvals", s.Plainvals)
	reg.Set(prefix+".ciphertexts", s.Ciphertexts)
	reg.Set(prefix+".encode_sim_ns", int64(s.EncodeSim))
	reg.Set(prefix+".encode_vals", s.EncodeVals)
}

// TotalSim is the modelled end-to-end time of the snapshot: device-scale HE +
// wire time + measured model computation. This is the quantity Tables III and
// V report.
func (s CostSnapshot) TotalSim() time.Duration {
	return s.HESim + s.CommSim + s.OtherWall + s.EncodeSim
}

// The same value as TotalSim: the round has no overlap to credit. The name
// exists only because benchmark/measure.go reads the modelled step under it.
func (s CostSnapshot) TotalSimOverlapped() time.Duration { return s.TotalSim() }

// Shares returns the fractions (other, HE, comm) of TotalSim — the rows of
// Table VI. The "other" share folds in encode alongside OtherWall.
func (s CostSnapshot) Shares() (other, he, comm float64) {
	total := s.TotalSim()
	if total <= 0 {
		return 0, 0, 0
	}
	t := float64(total)
	return float64(s.OtherWall+s.EncodeSim) / t, float64(s.HESim) / t, float64(s.CommSim) / t
}

// Throughput returns HE instances per second of modelled HE time — the
// cells of Table IV.
func (s CostSnapshot) Throughput() float64 {
	if s.HESim <= 0 {
		return 0
	}
	return float64(s.Instances) / s.HESim.Seconds()
}

// CompressionRatio returns plaintext values per ciphertext — Fig. 7.
func (s CostSnapshot) CompressionRatio() float64 {
	if s.Ciphertexts == 0 {
		return 1
	}
	return float64(s.Plainvals) / float64(s.Ciphertexts)
}
