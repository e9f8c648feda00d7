package paillier

import (
	"fmt"
	"reflect"

	"flbooster/internal/ghe"
	"flbooster/internal/mpint"
)

// Backend executes batched Paillier operations. The CPU backend runs every
// element serially (the FATE baseline); the GPU backend launches the
// vectorized kernels of internal/ghe (the HAFLO / FLBooster configurations).
type Backend interface {
	// Name identifies the backend in experiment reports.
	Name() string
	// EncryptVec encrypts every plaintext under pk.
	EncryptVec(pk *PublicKey, ms []mpint.Nat, seed uint64) ([]Ciphertext, error)
	// DecryptVec decrypts every ciphertext under sk.
	DecryptVec(sk *PrivateKey, cs []Ciphertext) ([]mpint.Nat, error)
	// AddVec computes the pairwise homomorphic addition of two batches.
	AddVec(pk *PublicKey, a, b []Ciphertext) ([]Ciphertext, error)
	// MulPlainVec raises each ciphertext to the matching plaintext scalar.
	MulPlainVec(pk *PublicKey, cs []Ciphertext, ks []mpint.Nat) ([]Ciphertext, error)
	// WeightedSumVec computes, for every sum, the homomorphic weighted sum
	// E(Σ t.Weight·mᵢ) = Π cs[t.Index]^t.Weight mod n² over its terms t, mᵢ
	// being the plaintext of cs[t.Index]: k sparse non-negative-integer
	// combinations of one ciphertext vector — the host side of a vertical
	// model's gradient or histogram step. Zero weights are no terms, and a sum
	// without a term is the ciphertext 1, the encryption of zero under nonce 1.
	// A term that refers outside cs rejects with mpint.ErrTermIndex.
	WeightedSumVec(pk *PublicKey, cs []Ciphertext, sums [][]mpint.Term) ([]Ciphertext, error)
}

// CPUBackend performs every HE operation serially on the host, as FATE's
// Python/CPU implementation does.
type CPUBackend struct{}

// Name implements Backend.
func (CPUBackend) Name() string { return "cpu-serial" }

// EncryptVec implements Backend.
func (CPUBackend) EncryptVec(pk *PublicKey, ms []mpint.Nat, seed uint64) ([]Ciphertext, error) {
	rng := mpint.NewRNG(seed)
	out := make([]Ciphertext, len(ms))
	for i, m := range ms {
		c, err := pk.Encrypt(m, rng)
		if err != nil {
			return nil, fmt.Errorf("paillier: cpu EncryptVec[%d]: %w", i, err)
		}
		out[i] = c
	}
	return out, nil
}

// DecryptVec implements Backend.
func (CPUBackend) DecryptVec(sk *PrivateKey, cs []Ciphertext) ([]mpint.Nat, error) {
	out := make([]mpint.Nat, len(cs))
	for i, c := range cs {
		m, err := sk.Decrypt(c)
		if err != nil {
			return nil, fmt.Errorf("paillier: cpu DecryptVec[%d]: %w", i, err)
		}
		out[i] = m
	}
	return out, nil
}

// AddVec implements Backend.
func (CPUBackend) AddVec(pk *PublicKey, a, b []Ciphertext) ([]Ciphertext, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("paillier: AddVec length mismatch %d vs %d", len(a), len(b))
	}
	out := make([]Ciphertext, len(a))
	for i := range a {
		out[i] = pk.Add(a[i], b[i])
	}
	return out, nil
}

// MulPlainVec implements Backend.
func (CPUBackend) MulPlainVec(pk *PublicKey, cs []Ciphertext, ks []mpint.Nat) ([]Ciphertext, error) {
	if len(cs) != len(ks) {
		return nil, fmt.Errorf("paillier: MulPlainVec length mismatch %d vs %d", len(cs), len(ks))
	}
	out := make([]Ciphertext, len(cs))
	for i := range cs {
		out[i] = pk.MulPlain(cs[i], ks[i])
	}
	return out, nil
}

// WeightedSumVec implements Backend the way FATE computes a weighted sum: one
// ciphertext-scalar product and one homomorphic addition a term, in order. It
// is also the oracle the GPU backend's kernel is tested against.
func (CPUBackend) WeightedSumVec(pk *PublicKey, cs []Ciphertext, sums [][]mpint.Term) ([]Ciphertext, error) {
	if err := mpint.CheckTerms(len(cs), sums); err != nil {
		return nil, fmt.Errorf("paillier: WeightedSumVec: %w", err)
	}
	out := make([]Ciphertext, len(sums))
	for j, sum := range sums {
		acc, empty := Ciphertext{C: mpint.One()}, true
		for _, t := range sum {
			if t.Weight == 0 {
				continue
			}
			term := cs[t.Index]
			if t.Weight != 1 {
				term = pk.MulPlain(term, mpint.FromUint64(t.Weight))
			}
			if empty {
				acc, empty = term, false
			} else {
				acc = pk.Add(acc, term)
			}
		}
		out[j] = acc
	}
	return out, nil
}

// GPUBackend lowers batched operations onto the GPU-HE engine, following the
// pipeline of Fig. 4: convert, copy to device, compute in parallel, copy
// back. The engine is any ghe.VectorEngine — the raw device engine, the
// checked executor over a device set (retry/verify/steal/fallback), or the
// pure-host engine — so the backend degrades between substrates without code
// changes.
type GPUBackend struct {
	Engine ghe.VectorEngine
}

// NewGPUBackend wraps a GPU-HE vector engine. Typed nils (e.g. a nil
// *ghe.Engine boxed in the interface) are rejected like bare nil, so the
// backend cannot be built around an engine that panics on first use.
func NewGPUBackend(e ghe.VectorEngine) (*GPUBackend, error) {
	if e == nil || isNilEngine(e) {
		return nil, fmt.Errorf("paillier: NewGPUBackend needs an engine")
	}
	return &GPUBackend{Engine: e}, nil
}

// isNilEngine reports whether the interface boxes a nil pointer value.
func isNilEngine(e ghe.VectorEngine) bool {
	v := reflect.ValueOf(e)
	switch v.Kind() {
	case reflect.Ptr, reflect.Map, reflect.Slice, reflect.Chan, reflect.Func:
		return v.IsNil()
	}
	return false
}

// MustGPUBackend is NewGPUBackend for known-good engines; it panics on
// error. Intended for tests.
func MustGPUBackend(e ghe.VectorEngine) *GPUBackend {
	g, err := NewGPUBackend(e)
	if err != nil {
		panic(err)
	}
	return g
}

// Name implements Backend.
func (g *GPUBackend) Name() string { return "gpu-he" }

// EncryptVec implements Backend as a single kernel: every lane draws its
// nonce, raises it to n and multiplies gᵐ in, through the factorisation when
// pk is the holder's handle. Only the plaintexts go up and only the
// ciphertexts come back.
func (g *GPUBackend) EncryptVec(pk *PublicKey, ms []mpint.Nat, seed uint64) ([]Ciphertext, error) {
	cs, err := g.Engine.EncryptVec(ms, ghe.EncryptKey{N: pk.N, N2: pk.montN2, Sched: pk.nSched, CRT: pk.own}, seed)
	if err != nil {
		return nil, fmt.Errorf("paillier: gpu EncryptVec: %w", err)
	}
	out := make([]Ciphertext, len(ms))
	for i := range cs {
		out[i] = Ciphertext{C: cs[i]}
	}
	return out, nil
}

// DecryptVec implements Backend with the reduced-exponent CRT split: two
// shared-exponent kernels over the half-size moduli p² and q² (exponents
// p−1 and q−1, half the bits of λ, on operands with half the limbs), then
// the cheap L(·)·h and Garner recombination per element on the host, on
// pooled scratch (one allocation per plaintext).
func (g *GPUBackend) DecryptVec(sk *PrivateKey, cs []Ciphertext) ([]mpint.Nat, error) {
	bases := make([]mpint.Nat, len(cs))
	for i, c := range cs {
		if c.C.IsZero() || mpint.Cmp(c.C, sk.N2) >= 0 {
			return nil, fmt.Errorf("paillier: gpu DecryptVec[%d]: ciphertext out of range", i)
		}
		bases[i] = c.C
	}
	xp, err := g.Engine.ModExpVec(bases, sk.pm1, sk.crt.P2())
	if err != nil {
		return nil, fmt.Errorf("paillier: gpu DecryptVec c^(p-1): %w", err)
	}
	xq, err := g.Engine.ModExpVec(bases, sk.qm1, sk.crt.Q2())
	if err != nil {
		return nil, fmt.Errorf("paillier: gpu DecryptVec c^(q-1): %w", err)
	}
	out := make([]mpint.Nat, len(cs))
	for i := range cs {
		out[i] = sk.crt.LogCombine(xp[i], xq[i], sk.hp, sk.hq)
	}
	return out, nil
}

// AddVec implements Backend as a single modular-multiplication kernel.
func (g *GPUBackend) AddVec(pk *PublicKey, a, b []Ciphertext) ([]Ciphertext, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("paillier: AddVec length mismatch %d vs %d", len(a), len(b))
	}
	av := make([]mpint.Nat, len(a))
	bv := make([]mpint.Nat, len(b))
	for i := range a {
		av[i], bv[i] = a[i].C, b[i].C
	}
	prod, err := g.Engine.ModMulVec(av, bv, pk.MontN2())
	if err != nil {
		return nil, fmt.Errorf("paillier: gpu AddVec: %w", err)
	}
	out := make([]Ciphertext, len(a))
	for i := range prod {
		out[i] = Ciphertext{C: prod[i]}
	}
	return out, nil
}

// MulPlainVec implements Backend as a variable-exponent modexp kernel.
func (g *GPUBackend) MulPlainVec(pk *PublicKey, cs []Ciphertext, ks []mpint.Nat) ([]Ciphertext, error) {
	if len(cs) != len(ks) {
		return nil, fmt.Errorf("paillier: MulPlainVec length mismatch %d vs %d", len(cs), len(ks))
	}
	bases := make([]mpint.Nat, len(cs))
	for i, c := range cs {
		bases[i] = c.C
	}
	pow, err := g.Engine.ModExpVarVec(bases, ks, pk.MontN2())
	if err != nil {
		return nil, fmt.Errorf("paillier: gpu MulPlainVec: %w", err)
	}
	out := make([]Ciphertext, len(cs))
	for i := range pow {
		out[i] = Ciphertext{C: pow[i]}
	}
	return out, nil
}

// WeightedSumVec implements Backend as one shared-table multi-exponentiation
// kernel: every sum of the call in a single launch.
func (g *GPUBackend) WeightedSumVec(pk *PublicKey, cs []Ciphertext, sums [][]mpint.Term) ([]Ciphertext, error) {
	bases := make([]mpint.Nat, len(cs))
	for i, c := range cs {
		bases[i] = c.C
	}
	prods, err := g.Engine.MultiExpVec(bases, sums, pk.MontN2())
	if err != nil {
		return nil, fmt.Errorf("paillier: gpu WeightedSumVec: %w", err)
	}
	out := make([]Ciphertext, len(sums))
	for i := range prods {
		out[i] = Ciphertext{C: prods[i]}
	}
	return out, nil
}
