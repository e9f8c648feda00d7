package ghe

import (
	"fmt"
	"sync"

	"flbooster/internal/gpu"
)

// Engine executes vectorized multi-precision modular arithmetic on one
// simulated GPU, one attempt per op: a launch that faults surfaces its typed
// *gpu.KernelError. It is the reference the bit-exactness suites compare the
// other engines against, and what the checked executor runs on each member of
// its device set.
type Engine struct {
	vecAPI
	dev *gpu.Device

	mu    sync.Mutex
	table TableStats
}

// TableStats counts the engine's shared-table precomputation activity: the
// odd-power tables built for MultiExpVec launches (DESIGN.md §17) and the
// elements they served.
type TableStats struct {
	// Builds is the number of tables constructed (one per launch).
	Builds int64
	// Entries is the total table entries built: 2^(w−1) a referenced base.
	Entries int64
	// Ops is the number of elements evaluated through a table.
	Ops int64
}

// NewEngine wraps a device.
func NewEngine(dev *gpu.Device) (*Engine, error) {
	if dev == nil {
		return nil, fmt.Errorf("ghe: NewEngine needs a device")
	}
	e := &Engine{dev: dev}
	e.vecAPI = vecAPI{e.launch, new(sync.Pool), roundWindow(dev.Workers())}
	return e, nil
}

// MustEngine is NewEngine for known-good devices; it panics on error.
// Intended for tests.
func MustEngine(dev *gpu.Device) *Engine {
	e, err := NewEngine(dev)
	if err != nil {
		panic(err)
	}
	return e
}

// Device exposes the underlying device (for stats and utilization readings).
func (e *Engine) Device() *gpu.Device { return e.dev }

// TableStats returns a snapshot of the shared-table counters.
func (e *Engine) TableStats() TableStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.table
}

// launch runs op once on the device, the pipeline of Fig. 4: account the
// host→device copy, run the op's set-up stage if it has one, launch a
// data-parallel kernel (one item per element), account the device→host copy.
func (e *Engine) launch(op vecOp) error {
	if n := op.h2d(); n > 0 {
		e.dev.CopyToDevice(n)
	}
	entries, err := op.setup(e.dev)
	if err != nil {
		return fmt.Errorf("ghe: %s: %w", op.name(), err)
	}
	kern := op.kernel(e.dev.Config().WarpSize)
	kern.Name, kern.Items, kern.Body = op.name(), len(op.result()), op
	if _, err := e.dev.Launch(kern); err != nil {
		return fmt.Errorf("ghe: %s: %w", op.name(), err)
	}
	e.dev.CopyFromDevice(op.d2h())
	if entries > 0 {
		e.mu.Lock()
		e.table.Builds++
		e.table.Entries += int64(entries)
		e.table.Ops += int64(kern.Items)
		e.mu.Unlock()
	}
	return nil
}
