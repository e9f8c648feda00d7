package ghe

import (
	"fmt"

	"flbooster/internal/mpint"
)

// VectorEngine is the vector interface of the GPU-HE layer as consumed by
// the Paillier backend: batched modular exponentiation, modular
// multiplication, and nonce generation. Engine (device), CheckedEngine
// (device + verification + retry + failover), and CPUEngine (pure host)
// all implement it, so callers degrade between substrates without code
// changes.
type VectorEngine interface {
	// ModExpVec computes bases[i]^exp mod m.N() for every i.
	ModExpVec(bases []mpint.Nat, exp mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error)
	// PowNVec computes xs[i]^n mod n² for every i through the factorisation
	// crt compiles — what ModExpVec(xs, crt.N(), m) computes, for a caller
	// that owns the key; m is the context mod n².
	PowNVec(xs []mpint.Nat, crt *mpint.CRT, m *mpint.Mont) ([]mpint.Nat, error)
	// ModExpVarVec computes bases[i]^exps[i] mod m.N() for every i.
	ModExpVarVec(bases, exps []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error)
	// FixedBaseExpVec computes base^exps[i] mod m.N() for every i.
	FixedBaseExpVec(base mpint.Nat, exps []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error)
	// ModMulVec computes a[i]*b[i] mod m.N() for every i.
	ModMulVec(a, b []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error)
	// RandCoprimeVec generates n values uniform in [1, m) coprime with m.
	RandCoprimeVec(n int, m mpint.Nat, seed uint64) ([]mpint.Nat, error)
}

// Engine, CheckedEngine, and CPUEngine must stay interchangeable.
var (
	_ VectorEngine = (*Engine)(nil)
	_ VectorEngine = (*CheckedEngine)(nil)
	_ VectorEngine = (*CPUEngine)(nil)
)

// CPUEngine executes the vector interface serially on the host — the
// degraded-mode substrate a CheckedEngine fails over to when its device
// dies. Every method runs exactly the arithmetic of the matching device
// kernel (same mpint routines, same per-item stream derivation), so
// fallback results are bit-exact with healthy device results.
type CPUEngine struct{}

// NewCPUEngine returns the host engine.
func NewCPUEngine() *CPUEngine { return &CPUEngine{} }

// ModExpVec implements VectorEngine. The shared exponent's window schedule
// is recoded once, exactly like the device kernel.
func (*CPUEngine) ModExpVec(bases []mpint.Nat, exp mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	out := make([]mpint.Nat, len(bases))
	sched := mpint.CompileExpAuto(exp)
	for i := range bases {
		out[i] = m.ExpSched(bases[i], sched)
	}
	return out, nil
}

// PowNVec implements VectorEngine.
func (*CPUEngine) PowNVec(xs []mpint.Nat, crt *mpint.CRT, _ *mpint.Mont) ([]mpint.Nat, error) {
	out := make([]mpint.Nat, len(xs))
	for i := range xs {
		out[i] = crt.PowN(xs[i])
	}
	return out, nil
}

// ModExpVarVec implements VectorEngine.
func (*CPUEngine) ModExpVarVec(bases, exps []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	if len(bases) != len(exps) {
		return nil, fmt.Errorf("ghe: ModExpVarVec length mismatch %d vs %d", len(bases), len(exps))
	}
	out := make([]mpint.Nat, len(bases))
	for i := range bases {
		out[i] = m.Exp(bases[i], exps[i])
	}
	return out, nil
}

// FixedBaseExpVec implements VectorEngine through the same Lim–Lee comb the
// device kernel uses (same auto-height heuristic, same table), without
// replicating the base across the vector. Results stay bit-exact with the
// device path and with plain per-element Exp.
func (c *CPUEngine) FixedBaseExpVec(base mpint.Nat, exps []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	if len(exps) == 0 {
		return nil, nil
	}
	maxExpBits := 1
	for _, x := range exps {
		if b := x.BitLen(); b > maxExpBits {
			maxExpBits = b
		}
	}
	h := mpint.ChooseFixedBaseHeight(maxExpBits, len(exps))
	tbl := mpint.NewFixedBaseTable(m, base, maxExpBits, h)
	out := make([]mpint.Nat, len(exps))
	for i := range exps {
		out[i] = tbl.Exp(exps[i])
	}
	return out, nil
}

// ModMulVec implements VectorEngine.
func (*CPUEngine) ModMulVec(a, b []mpint.Nat, m *mpint.Mont) ([]mpint.Nat, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("ghe: ModMulVec length mismatch %d vs %d", len(a), len(b))
	}
	out := make([]mpint.Nat, len(a))
	for i := range a {
		out[i] = modMul(m, a[i], b[i])
	}
	return out, nil
}

// RandCoprimeVec implements VectorEngine with the device kernel's exact
// per-item stream derivation.
func (c *CPUEngine) RandCoprimeVec(n int, m mpint.Nat, seed uint64) ([]mpint.Nat, error) {
	return c.RandCoprimeRange(0, n, m, seed)
}

// RandCoprimeRange generates items [base, base+n) of the RandCoprimeVec(m,
// seed) stream, as the device kernel does.
func (*CPUEngine) RandCoprimeRange(base, n int, m mpint.Nat, seed uint64) ([]mpint.Nat, error) {
	if base < 0 {
		return nil, fmt.Errorf("ghe: RandCoprimeRange negative base %d", base)
	}
	if m.IsZero() || m.IsOne() {
		return nil, fmt.Errorf("ghe: RandCoprimeRange modulus must be > 1")
	}
	out := make([]mpint.Nat, n)
	for i := range out {
		out[i] = randCoprimeAt(seed, base+i, m)
	}
	return out, nil
}
