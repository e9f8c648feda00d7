package ghe

import (
	"slices"

	"flbooster/internal/mpint"
)

// The suites state most ops through forms that return a vector of their own,
// as the executor offered them before a backend's call got a frame; each is the
// frame's method, its staged results copied out before the frame is released.
// hostLoop offers the same forms on the host reference.

// vecEngine is what a suite holds to one ceiling or one vector: the executor
// or the host loop.
type vecEngine interface {
	ModMulVec(a, b []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error)
	MultiExpVec(bases []mpint.Nat, sums [][]mpint.Term, m *mpint.Mont) ([]mpint.Nat, error)
}

// kept runs op in a frame with staging for n results and returns a copy of
// them, nil for an op over no items.
func (c *CheckedEngine) kept(n int, op func(f *Frame) ([]mpint.Nat, error)) ([]mpint.Nat, error) {
	f := c.Frame(n)
	defer f.Release()
	out, err := op(f)
	return slices.Clone(out), err
}

func (c *CheckedEngine) ModExpVarVec(bases, exps []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	return c.kept(len(bases), func(f *Frame) ([]mpint.Nat, error) { return f.ModExpVarVec(bases, exps, m) })
}

func (c *CheckedEngine) MultiExpVec(bases []mpint.Nat, sums [][]mpint.Term, m *mpint.Mont) ([]mpint.Nat, error) {
	return c.kept(len(sums), func(f *Frame) ([]mpint.Nat, error) { return f.MultiExpVec(bases, sums, m) })
}

// EncryptVec is Frame.EncryptVecs over one batch.
func (c *CheckedEngine) EncryptVec(ms []mpint.Nat, key EncryptKey, seed uint64) ([]mpint.Nat, error) {
	return c.kept(len(ms), func(f *Frame) ([]mpint.Nat, error) { return f.encryptVec(ms, key, seed) })
}

// encryptVec is EncryptVecs over one batch into staging.
func (f *Frame) encryptVec(ms []mpint.Nat, key EncryptKey, seed uint64) ([]mpint.Nat, error) {
	batch, seeds, dst := [1][]mpint.Nat{ms}, [1]uint64{seed}, f.Vec(len(ms))
	if _, err := f.EncryptVecs(dst, batch[:], key, seeds[:]); err != nil {
		return nil, err
	}
	return dst, nil
}

func (c *CheckedEngine) DecryptVec(cs []mpint.Nat, key DecryptKey) ([]mpint.Nat, error) {
	return c.kept(len(cs), func(f *Frame) ([]mpint.Nat, error) { return f.DecryptVec(cs, key) })
}

func (c *CheckedEngine) ShiftPackVec(cs []mpint.Nat, slots, slotBits int, m *mpint.Mont) ([]mpint.Nat, error) {
	return c.kept(len(cs), func(f *Frame) ([]mpint.Nat, error) { return f.ShiftPackVec(cs, slots, slotBits, m) })
}

// hostLoop is the host reference the suites hold the executor to: each form
// states its op as the executor's does and runs it with runOnHost, one item at
// a time, the set-up stage without a launch.
type hostLoop struct{}

// run runs op on the host loop and returns its result vector.
func (hostLoop) run(op vecOp) ([]mpint.Nat, error) {
	if err := runOnHost(op); err != nil {
		return nil, err
	}
	return op.result(), nil
}

func (h hostLoop) ModExpVec(bases []mpint.Nat, exp mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	return h.run(&modExpOp{newModVec(len(bases), m), bases, exp, mpint.CompileExpAuto(exp)})
}

func (h hostLoop) ModExpVarVec(bases, exps []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	return h.run(&modExpVarOp{newModVec(len(bases), m), bases, exps})
}

func (h hostLoop) ModMulVec(a, b []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	return h.run(&modMulOp{newModVec(len(a), m), a, b})
}

func (h hostLoop) MultiExpVec(bases []mpint.Nat, sums [][]mpint.Term, m *mpint.Mont) ([]mpint.Nat, error) {
	tbl, err := m.NewMultiExpTable(bases, sums)
	if err != nil {
		return nil, err
	}
	defer tbl.Release()
	return h.run(&multiExpOp{newModVec(len(sums), m), bases, sums, tbl})
}

func (h hostLoop) EncryptVec(ms []mpint.Nat, key EncryptKey, seed uint64) ([]mpint.Nat, error) {
	op, err := newEncryptOp(make([]mpint.Nat, len(ms)), ms, key, seed)
	if err != nil {
		return nil, err
	}
	return h.run(&op)
}

func (h hostLoop) ShiftPackVec(cs []mpint.Nat, slots, slotBits int, m *mpint.Mont) ([]mpint.Nat, error) {
	return h.run(&shiftPackOp{newModVec((len(cs)+slots-1)/slots, m), cs, slots, slotBits, shiftSchedule(slotBits)})
}

func (h hostLoop) elem(kind *elemKind, a, b []mpint.Nat) ([]mpint.Nat, error) {
	op, err := newElemOp(kind, a, b)
	if err != nil {
		return nil, err
	}
	return h.run(op)
}

func (h hostLoop) AddVec(a, b []mpint.Nat) ([]mpint.Nat, error) { return h.elem(elemAdd, a, b) }
func (h hostLoop) MulVec(a, b []mpint.Nat) ([]mpint.Nat, error) { return h.elem(elemMul, a, b) }
func (h hostLoop) ModVec(a []mpint.Nat, n mpint.Nat) ([]mpint.Nat, error) {
	return h.elem(elemMod, a, []mpint.Nat{n})
}

func (h hostLoop) MillerRabinVec(ns, as []mpint.Nat) ([]mpint.Nat, error) {
	op, err := newMillerRabinOp(make([]mpint.Nat, len(as)), ns, as)
	if err != nil {
		return nil, err
	}
	return h.run(&op)
}

// PrimeSearch is the walk a round at a time, each round a miller_rabin_vec
// op on the host loop.
func (h hostLoop) PrimeSearch() mpint.PrimeSearch {
	return mpint.PrimeSearch{Window: 1, Run: func(ns, as []mpint.Nat, passed []bool) error {
		out, err := h.MillerRabinVec(ns, as)
		for i, x := range out {
			passed[i] = x.IsOne()
		}
		return err
	}}
}
