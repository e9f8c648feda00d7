package ghe

import (
	"slices"

	"flbooster/internal/mpint"
)

// The suites state most ops through forms that return a vector of their own,
// as the engines offered them before a backend's call got a frame; each is the
// frame's method, its staged results copied out before the frame is released.

// vecEngine is a VectorEngine with those forms.
type vecEngine interface {
	VectorEngine
	ModExpVec(bases []mpint.Nat, exp mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error)
	ModExpVarVec(bases, exps []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error)
	MultiExpVec(bases []mpint.Nat, sums [][]mpint.Term, m *mpint.Mont) ([]mpint.Nat, error)
	ModMulVec(a, b []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error)
	EncryptVec(ms []mpint.Nat, key EncryptKey, seed uint64) ([]mpint.Nat, error)
}

// kept runs op in a frame with staging for n results and returns a copy of
// them, nil for an op over no items.
func (v vecAPI) kept(n int, op func(f *Frame) ([]mpint.Nat, error)) ([]mpint.Nat, error) {
	f := v.Frame(n)
	defer f.Release()
	out, err := op(f)
	return slices.Clone(out), err
}

func (v vecAPI) ModExpVarVec(bases, exps []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	return v.kept(len(bases), func(f *Frame) ([]mpint.Nat, error) { return f.ModExpVarVec(bases, exps, m) })
}

func (v vecAPI) MultiExpVec(bases []mpint.Nat, sums [][]mpint.Term, m *mpint.Mont) ([]mpint.Nat, error) {
	return v.kept(len(sums), func(f *Frame) ([]mpint.Nat, error) { return f.MultiExpVec(bases, sums, m) })
}

func (v vecAPI) EncryptVec(ms []mpint.Nat, key EncryptKey, seed uint64) ([]mpint.Nat, error) {
	return v.kept(len(ms), func(f *Frame) ([]mpint.Nat, error) { return f.EncryptVec(ms, key, seed) })
}

func (v vecAPI) DecryptVec(cs []mpint.Nat, key DecryptKey) ([]mpint.Nat, error) {
	return v.kept(len(cs), func(f *Frame) ([]mpint.Nat, error) { return f.DecryptVec(cs, key) })
}

func (v vecAPI) ShiftPackVec(cs []mpint.Nat, slots, slotBits int, m *mpint.Mont) ([]mpint.Nat, error) {
	return v.kept(len(cs), func(f *Frame) ([]mpint.Nat, error) { return f.ShiftPackVec(cs, slots, slotBits, m) })
}
