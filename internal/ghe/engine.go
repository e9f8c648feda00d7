package ghe

import (
	"fmt"
	"sync"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
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
// comb tables built for FixedBaseExpVec launches (DESIGN.md §10), the odd-power
// tables built for MultiExpVec launches (§17), and the elements they served.
type TableStats struct {
	// Builds is the number of tables constructed (one per launch).
	Builds int64
	// Entries is the total table entries built: 2^h a comb, 2^(w−1) a
	// referenced base a multi-exponentiation.
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
	e.vecAPI = vecAPI{e.launch}
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
	kern.Name, kern.Items, kern.Poison = op.name(), len(op.result()), op.poison
	if _, err := e.dev.Launch(kern, op.lane); err != nil {
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

// FixedBaseExpVecH is FixedBaseExpVec with a caller-chosen comb height
// (h ≤ 0 auto-picks) — exposed for the heopt height-sweep benchmark.
func (e *Engine) FixedBaseExpVecH(base mpint.Nat, exps []mpint.Nat, m *mpint.Mont, h int) ([]mpint.Nat, error) {
	return e.run(&fixedBaseOp{newModVec(len(exps), m), base, exps, h, nil})
}

// elementwise launches a light arithmetic kernel shared by the Table-I
// vector APIs (add/sub/mul/div/mod).
func (e *Engine) elementwise(name string, n, limbs int, inputs int, out []mpint.Nat, fn func(i int)) error {
	e.dev.CopyToDevice(int64(inputs) * natBytes(n, limbs))
	kern := gpu.Kernel{
		Name:          name,
		Items:         n,
		RegsPerThread: regsForLimbs(limbs),
		WordOps:       int64(limbs + 1),
		Poison:        outVec{out}.poison,
	}
	if _, err := e.dev.Launch(kern, fn); err != nil {
		return fmt.Errorf("ghe: %s: %w", name, err)
	}
	e.dev.CopyFromDevice(natBytes(n, limbs))
	return nil
}

// maxLimbs returns the limb count of the widest element across the vectors.
func maxLimbs(vecs ...[]mpint.Nat) int {
	k := 1
	for _, v := range vecs {
		for _, x := range v {
			if l := (x.BitLen() + 31) / 32; l > k {
				k = l
			}
		}
	}
	return k
}

// AddVec computes a[i]+b[i] for every i.
func (e *Engine) AddVec(a, b []mpint.Nat) ([]mpint.Nat, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("ghe: AddVec length mismatch %d vs %d", len(a), len(b))
	}
	out := make([]mpint.Nat, len(a))
	err := e.elementwise("add_vec", len(a), maxLimbs(a, b), 2, out, func(i int) {
		out[i] = mpint.Add(a[i], b[i])
	})
	return out, err
}

// SubVec computes a[i]-b[i] for every i; it fails if any element underflows.
func (e *Engine) SubVec(a, b []mpint.Nat) ([]mpint.Nat, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("ghe: SubVec length mismatch %d vs %d", len(a), len(b))
	}
	for i := range a {
		if mpint.Cmp(a[i], b[i]) < 0 {
			return nil, fmt.Errorf("ghe: SubVec underflow at index %d", i)
		}
	}
	out := make([]mpint.Nat, len(a))
	err := e.elementwise("sub_vec", len(a), maxLimbs(a, b), 2, out, func(i int) {
		out[i] = mpint.Sub(a[i], b[i])
	})
	return out, err
}

// MulVec computes a[i]*b[i] for every i.
func (e *Engine) MulVec(a, b []mpint.Nat) ([]mpint.Nat, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("ghe: MulVec length mismatch %d vs %d", len(a), len(b))
	}
	out := make([]mpint.Nat, len(a))
	err := e.elementwise("mul_vec", len(a), maxLimbs(a, b), 2, out, func(i int) {
		out[i] = mpint.Mul(a[i], b[i])
	})
	return out, err
}

// DivVec computes a[i]/b[i] for every i; it fails on a zero divisor.
func (e *Engine) DivVec(a, b []mpint.Nat) ([]mpint.Nat, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("ghe: DivVec length mismatch %d vs %d", len(a), len(b))
	}
	for i := range b {
		if b[i].IsZero() {
			return nil, fmt.Errorf("ghe: DivVec division by zero at index %d", i)
		}
	}
	out := make([]mpint.Nat, len(a))
	err := e.elementwise("div_vec", len(a), maxLimbs(a, b), 2, out, func(i int) {
		out[i] = mpint.Div(a[i], b[i])
	})
	return out, err
}

// ModVec computes a[i] mod n for every i; n must be nonzero.
func (e *Engine) ModVec(a []mpint.Nat, n mpint.Nat) ([]mpint.Nat, error) {
	if n.IsZero() {
		return nil, fmt.Errorf("ghe: ModVec zero modulus")
	}
	out := make([]mpint.Nat, len(a))
	err := e.elementwise("mod_vec", len(a), maxLimbs(a), 1, out, func(i int) {
		out[i] = mpint.Mod(a[i], n)
	})
	return out, err
}
