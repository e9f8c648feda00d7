// Package gpu implements a software model of a CUDA-class GPU: stream
// multiprocessors (SMs) executing warps of threads in blocks, a resource
// manager for block sizes and branch divergence, and a calibrated
// cost model for host↔device transfers and kernel execution.
//
// The paper runs its HE kernels on an NVIDIA RTX 3090. No GPU is available
// in this environment, so this package substitutes a simulator that (a)
// really executes kernel bodies concurrently on the host's cores, so the
// measured speedups over the serial CPU path are genuine, and (b) integrates
// the paper's Eq. 10 cost model (transfer time + parallel compute time) on a
// simulated clock, so paper-scale projections and utilization figures keep
// their shape. See DESIGN.md §1 for the substitution argument.
package gpu

import "fmt"

// Config describes the modelled device.
type Config struct {
	// Name identifies the device model in reports.
	Name string
	// SMs is the number of stream multiprocessors.
	SMs int
	// WarpSize is the number of threads that execute in lock-step.
	WarpSize int
	// MaxThreadsPerSM bounds resident threads per SM.
	MaxThreadsPerSM int
	// MaxWarpsPerSM bounds resident warps per SM.
	MaxWarpsPerSM int
	// RegistersPerSM is the size of each SM's register file (32-bit regs).
	RegistersPerSM int
	// MaxRegistersPerThread is the hardware cap per thread.
	MaxRegistersPerThread int
	// SharedMemPerSM is per-SM shared memory in bytes.
	SharedMemPerSM int
	// TransferBytesPerSec models the PCIe link (β_transfer⁻¹ in Eq. 10).
	TransferBytesPerSec float64
	// TransferLatencySec is the fixed per-transfer launch cost.
	TransferLatencySec float64
	// WordOpsPerSec is the aggregate 32-bit multiply-add throughput of one
	// fully occupied SM (β_gpu⁻¹ in Eq. 10, per SM).
	WordOpsPerSec float64
	// HostWorkers caps the real goroutines used to execute kernels. Zero
	// means one per host core.
	HostWorkers int
}

// Validate reports configuration errors; a zero-valued field that has no
// sensible default is an error rather than a silent misconfiguration.
func (c Config) Validate() error {
	switch {
	case c.SMs <= 0:
		return fmt.Errorf("gpu: config needs SMs > 0, got %d", c.SMs)
	case c.WarpSize <= 0:
		return fmt.Errorf("gpu: config needs WarpSize > 0, got %d", c.WarpSize)
	case c.MaxThreadsPerSM <= 0:
		return fmt.Errorf("gpu: config needs MaxThreadsPerSM > 0")
	case c.WarpSize > c.MaxThreadsPerSM:
		// A warp cannot exceed the SM's resident-thread capacity; allowing it
		// would push the one-warp occupancy floor past 1.
		return fmt.Errorf("gpu: config needs WarpSize <= MaxThreadsPerSM, got %d > %d",
			c.WarpSize, c.MaxThreadsPerSM)
	case c.MaxWarpsPerSM <= 0:
		return fmt.Errorf("gpu: config needs MaxWarpsPerSM > 0")
	case c.RegistersPerSM <= 0:
		return fmt.Errorf("gpu: config needs RegistersPerSM > 0")
	case c.SharedMemPerSM <= 0:
		return fmt.Errorf("gpu: config needs SharedMemPerSM > 0")
	case c.TransferBytesPerSec <= 0:
		return fmt.Errorf("gpu: config needs TransferBytesPerSec > 0")
	case c.WordOpsPerSec <= 0:
		return fmt.Errorf("gpu: config needs WordOpsPerSec > 0")
	case c.HostWorkers < 0:
		return fmt.Errorf("gpu: config needs HostWorkers >= 0, got %d", c.HostWorkers)
	}
	return nil
}

// RTX3090 returns the configuration of the paper's evaluation GPU
// (82 SMs, 128 threads/warp-scheduler slots, 24 GB, PCIe 4.0 x16).
func RTX3090() Config {
	return Config{
		Name:                  "NVIDIA GeForce RTX 3090 (modelled)",
		SMs:                   82,
		WarpSize:              32,
		MaxThreadsPerSM:       1536,
		MaxWarpsPerSM:         48,
		RegistersPerSM:        65536,
		MaxRegistersPerThread: 255,
		SharedMemPerSM:        100 << 10,
		TransferBytesPerSec:   24e9, // ~PCIe 4.0 x16 effective
		TransferLatencySec:    10e-6,
		WordOpsPerSec:         18e9, // per-SM 32-bit IMAD throughput
	}
}

// SmallTestDevice returns a tiny configuration for fast unit tests.
func SmallTestDevice() Config {
	return Config{
		Name:                  "test-device",
		SMs:                   4,
		WarpSize:              8,
		MaxThreadsPerSM:       64,
		MaxWarpsPerSM:         8,
		RegistersPerSM:        4096,
		MaxRegistersPerThread: 128,
		SharedMemPerSM:        16 << 10,
		TransferBytesPerSec:   1e9,
		TransferLatencySec:    1e-6,
		WordOpsPerSec:         1e9,
		HostWorkers:           2,
	}
}
