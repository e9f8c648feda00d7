package ghe

import (
	"fmt"
	"sync"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// Engine executes vectorized multi-precision modular arithmetic on a
// simulated GPU. All methods follow the pipeline of Fig. 4: account the
// host→device copy, launch a data-parallel kernel (one item per element),
// account the device→host copy, and return host-side results.
type Engine struct {
	dev *gpu.Device

	mu    sync.Mutex
	table TableStats
}

// TableStats counts the engine's fixed-base precomputation activity — the
// comb tables built for FixedBaseExpVec launches and the elements they
// served (DESIGN.md §10).
type TableStats struct {
	// Builds is the number of comb tables constructed (one per vector op).
	Builds int64
	// Entries is the total 2^h table entries built and shipped to the device.
	Entries int64
	// Ops is the number of elements evaluated through a comb table.
	Ops int64
}

// NewEngine wraps a device.
func NewEngine(dev *gpu.Device) (*Engine, error) {
	if dev == nil {
		return nil, fmt.Errorf("ghe: NewEngine needs a device")
	}
	return &Engine{dev: dev}, nil
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

// TableStats returns a snapshot of the fixed-base table counters.
func (e *Engine) TableStats() TableStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.table
}

// natBytes is the device-transfer size of a vector of k-limb values.
func natBytes(n, k int) int64 { return int64(n) * int64(k) * 4 }

// poisonOut is the per-launch poison callback handed to the device: an
// injected corruption flips the low bit of one item of the result vector,
// which only the CheckedEngine's residue verification can catch. The flip
// never widens the value's limb layout, so an undetected corruption stays a
// silent wrong value instead of crashing downstream consumers.
func poisonOut(out []mpint.Nat) func(int) {
	return func(i int) {
		if out[i].Bit(0) == 0 {
			out[i] = mpint.Add(out[i], mpint.One())
		} else {
			out[i] = mpint.Sub(out[i], mpint.One())
		}
	}
}

// ModExpVec computes bases[i]^exp mod m.N() for every i.
func (e *Engine) ModExpVec(bases []mpint.Nat, exp mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	k := m.Limbs()
	e.dev.CopyToDevice(natBytes(len(bases), k) + natBytes(1, k))
	out := make([]mpint.Nat, len(bases))
	kern := gpu.Kernel{
		Name:          "mod_exp_vec",
		Items:         len(bases),
		RegsPerThread: regsForLimbs(k),
		WordOps:       modExpWordOps(k, exp.BitLen()),
		Poison:        poisonOut(out),
	}
	// The exponent is shared by every element: recode its window schedule
	// once on the host and replay it per lane, instead of rescanning the
	// exponent bits in every thread.
	sched := mpint.CompileExpAuto(exp)
	if _, err := e.dev.Launch(kern, func(i int) {
		out[i] = m.ExpSched(bases[i], sched)
	}); err != nil {
		return nil, fmt.Errorf("ghe: ModExpVec: %w", err)
	}
	e.dev.CopyFromDevice(natBytes(len(bases), k))
	return out, nil
}

// PowNVec computes xs[i]^n mod n² for every i through the factorisation of
// n = p·q that crt compiles — the rⁿ noise terms of a key holder's
// encryptions — as one fused kernel: per lane two half-width exponentiations
// per prime and Garner's recombination (mpint.CRT.PowN), bit-identical with
// ModExpVec(xs, n, m) at under a third of its word-ops and half its register
// width. m is the context mod n², the width of the results. Transfers are
// charged at the operands' true widths: the bases are residues mod n, half as
// wide as the results, and the key's two exponent pairs and Garner constant
// ride along as ModExpVec's shared exponent does.
func (e *Engine) PowNVec(xs []mpint.Nat, crt *mpint.CRT, m *mpint.Mont) ([]mpint.Nat, error) {
	st := crt.Stages()
	kn := (crt.N().BitLen() + 31) / 32
	e.dev.CopyToDevice(natBytes(len(xs), kn) + natBytes(1, 2*st[0].Limbs+2*st[2].Limbs+st[1].Limbs))
	out := make([]mpint.Nat, len(xs))
	kern := gpu.Kernel{
		Name:          "pow_n_crt_vec",
		Items:         len(xs),
		RegsPerThread: regsForLimbs(max(st[1].Limbs, st[3].Limbs)), // the widest stage
		WordOps:       powNWordOps(st),
		Poison:        poisonOut(out),
	}
	if _, err := e.dev.Launch(kern, func(i int) {
		out[i] = crt.PowN(xs[i])
	}); err != nil {
		return nil, fmt.Errorf("ghe: PowNVec: %w", err)
	}
	e.dev.CopyFromDevice(natBytes(len(xs), m.Limbs()))
	return out, nil
}

// ModExpVarVec computes bases[i]^exps[i] mod m.N() for every i. bases and
// exps must have equal length.
func (e *Engine) ModExpVarVec(bases, exps []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	if len(bases) != len(exps) {
		return nil, fmt.Errorf("ghe: ModExpVarVec length mismatch %d vs %d", len(bases), len(exps))
	}
	k := m.Limbs()
	maxExpBits := 0
	for _, x := range exps {
		if b := x.BitLen(); b > maxExpBits {
			maxExpBits = b
		}
	}
	e.dev.CopyToDevice(2 * natBytes(len(bases), k))
	out := make([]mpint.Nat, len(bases))
	kern := gpu.Kernel{
		Name:          "mod_exp_var_vec",
		Items:         len(bases),
		RegsPerThread: regsForLimbs(k),
		WordOps:       modExpWordOps(k, maxExpBits),
		// Variable exponents make warp lanes take different window paths.
		DivergentLanes: e.dev.Config().WarpSize / 2,
		Poison:         poisonOut(out),
	}
	if _, err := e.dev.Launch(kern, func(i int) {
		out[i] = m.Exp(bases[i], exps[i])
	}); err != nil {
		return nil, fmt.Errorf("ghe: ModExpVarVec: %w", err)
	}
	e.dev.CopyFromDevice(natBytes(len(bases), k))
	return out, nil
}

// FixedBaseExpVec computes base^exps[i] mod m.N() for every i — Paillier's
// r^n noise terms and fixed-generator commitments. Unlike the variable-base
// kernel, the base is shared: a Lim–Lee comb table is precomputed once at
// the height that minimizes total multiplies for the batch, uploaded to the
// device, and every element then costs ~⌈bits/h⌉ multiplies instead of
// ~1.2·bits (see internal/mpint/fixedbase.go and DESIGN.md §10).
func (e *Engine) FixedBaseExpVec(base mpint.Nat, exps []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	return e.FixedBaseExpVecH(base, exps, m, 0)
}

// FixedBaseExpVecH is FixedBaseExpVec with a caller-chosen comb height
// (h ≤ 0 auto-picks) — exposed for the heopt height-sweep benchmark.
func (e *Engine) FixedBaseExpVecH(base mpint.Nat, exps []mpint.Nat, m *mpint.Mont, h int) ([]mpint.Nat, error) {
	if len(exps) == 0 {
		return nil, nil
	}
	k := m.Limbs()
	maxExpBits := 1
	for _, x := range exps {
		if b := x.BitLen(); b > maxExpBits {
			maxExpBits = b
		}
	}
	if h <= 0 {
		h = mpint.ChooseFixedBaseHeight(maxExpBits, len(exps))
	}
	h = mpint.ClampFixedBaseHeight(h, maxExpBits)

	// Upload the exponent vector and the (single) base.
	e.dev.CopyToDevice(natBytes(len(exps), k) + natBytes(1, k))

	// The table build runs as a one-item launch so its reduced-but-real cost
	// lands on the simulated clock (and in the trace as a fixed_base_table
	// span), amortized across the whole vector.
	var tbl *mpint.FixedBaseTable
	build := gpu.Kernel{
		Name:          "fixed_base_table",
		Items:         1,
		RegsPerThread: regsForLimbs(k),
		WordOps:       fixedBaseTableWordOps(k, maxExpBits, h),
	}
	if _, err := e.dev.Launch(build, func(int) {
		tbl = mpint.NewFixedBaseTable(m, base, maxExpBits, h)
	}); err != nil {
		return nil, fmt.Errorf("ghe: FixedBaseExpVec table build: %w", err)
	}
	// The finished table ships to the device once: 2^h entries of k limbs.
	e.dev.CopyToDevice(natBytes(tbl.Entries(), k))

	out := make([]mpint.Nat, len(exps))
	kern := gpu.Kernel{
		Name:          "fixed_base_exp_vec",
		Items:         len(exps),
		RegsPerThread: regsForLimbs(k),
		WordOps:       fixedBaseExpWordOps(k, maxExpBits, h),
		// Different exponents select different comb columns per lane.
		DivergentLanes: e.dev.Config().WarpSize / 2,
		Poison:         poisonOut(out),
	}
	if _, err := e.dev.Launch(kern, func(i int) {
		out[i] = tbl.Exp(exps[i])
	}); err != nil {
		return nil, fmt.Errorf("ghe: FixedBaseExpVec: %w", err)
	}
	e.dev.CopyFromDevice(natBytes(len(exps), k))

	e.mu.Lock()
	e.table.Builds++
	e.table.Entries += int64(tbl.Entries())
	e.table.Ops += int64(len(exps))
	e.mu.Unlock()
	return out, nil
}

// modMul is a·b mod n in two Montgomery multiplies: (a·R)·b·R⁻¹. Only one
// operand needs to be in Montgomery form for the product to come out of it.
func modMul(m *mpint.Mont, a, b mpint.Nat) mpint.Nat { return m.Mul(m.ToMont(a), b) }

// ModMulVec computes a[i]*b[i] mod m.N() for every i.
func (e *Engine) ModMulVec(a, b []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("ghe: ModMulVec length mismatch %d vs %d", len(a), len(b))
	}
	k := m.Limbs()
	e.dev.CopyToDevice(2 * natBytes(len(a), k))
	out := make([]mpint.Nat, len(a))
	kern := gpu.Kernel{
		Name:          "mod_mul_vec",
		Items:         len(a),
		RegsPerThread: regsForLimbs(k),
		// The charge prices the modelled device kernel — two to-Montgomery
		// conversions plus the multiply, as the paper's pipeline runs it — and
		// stays at three multiplies whatever the host does below.
		WordOps: 3 * montMulWordOps(k),
		Poison:  poisonOut(out),
	}
	if _, err := e.dev.Launch(kern, func(i int) {
		out[i] = modMul(m, a[i], b[i])
	}); err != nil {
		return nil, fmt.Errorf("ghe: ModMulVec: %w", err)
	}
	e.dev.CopyFromDevice(natBytes(len(a), k))
	return out, nil
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
		Poison:        poisonOut(out),
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
