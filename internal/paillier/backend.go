package paillier

import (
	"fmt"

	"flbooster/internal/ghe"
	"flbooster/internal/mpint"
)

// Backend executes batched Paillier operations. GPUBackend is the one
// implementation: the vectorized kernels of internal/ghe on the executor's
// fleet — launched on its members on the HAFLO / FLBooster configurations,
// served item by item by the host loop on FATE's and w/o GHE's fleet of no
// member. No result shares limbs with an operand, so a
// caller may release a result batch (ReleaseBatch) while its operands live
// on, and the other way round.
type Backend interface {
	// EncryptVec encrypts every plaintext under pk.
	EncryptVec(pk *PublicKey, ms []mpint.Nat, seed uint64) ([]Ciphertext, error)
	// DecryptVec decrypts every ciphertext under sk.
	DecryptVec(sk *PrivateKey, cs []Ciphertext) ([]mpint.Nat, error)
	// AddVec computes the pairwise homomorphic addition of two batches.
	AddVec(pk *PublicKey, a, b []Ciphertext) ([]Ciphertext, error)
	// MulPlainVec raises each ciphertext to the matching plaintext scalar.
	MulPlainVec(pk *PublicKey, cs []Ciphertext, ks []mpint.Nat) ([]Ciphertext, error)
	// WeightedSumVec computes, for every sum, the homomorphic weighted sum
	// E(Σ ±t.Weight·mᵢ) = Π cs[t.Index]^(±t.Weight) mod n² over its terms t,
	// mᵢ being the plaintext of cs[t.Index] and the sign t.Neg's: k sparse
	// integer combinations of one ciphertext vector — the host side of a
	// vertical model's gradient or histogram step. Zero weights are no terms,
	// and a sum without a term is the ciphertext 1, the encryption of zero
	// under nonce 1. A term that refers outside cs rejects with
	// mpint.ErrTermIndex; a negative term over a ciphertext with no inverse
	// mod n² with mpint.ErrNotInvertible.
	WeightedSumVec(pk *PublicKey, cs []Ciphertext, sums [][]mpint.Term) ([]Ciphertext, error)
	// ShiftPackVec packs the plaintexts of cs, slots to a ciphertext, into
	// slotBits-wide slots: out[i] = E(Σⱼ m[i·slots+j]·2^(slotBits·j)) =
	// Π cs[i·slots+j]^(2^(slotBits·j)) mod n² over the j < slots that cs has a
	// value for — ⌈len(cs)/slots⌉ ciphertexts, only the last of which can be
	// short. Keeping a plaintext inside its slot is the caller's business.
	ShiftPackVec(pk *PublicKey, cs []Ciphertext, slots, slotBits int) ([]Ciphertext, error)
	// GenerateKey generates a key pair with an n of exactly bits bits from
	// rng: the walk of mpint.PrimeSearch, whose primes and whose generator
	// state after them are the same whoever runs its Miller–Rabin rounds, so
	// every backend draws GenerateKey's key.
	GenerateKey(rng *mpint.RNG, bits int) (*PrivateKey, error)
}

// BatchEncrypter is a Backend that encrypts several batches as one job
// (GPUBackend), batch j into out[j]: EncryptVec is its one-batch case.
type BatchEncrypter interface {
	Backend
	EncryptVecs(out [][]Ciphertext, pk *PublicKey, batches [][]mpint.Nat, seeds []uint64) (int, error)
}

// EncryptVecs encrypts every batch under pk into out, batch j on the nonce
// stream of seeds[j] — out[j] is what EncryptVec(pk, batches[j], seeds[j])
// returns, the calls made in order — as one job where b is a BatchEncrypter,
// as GPUBackend is on every profile, and a batch after the other where it is
// not, so a wrapper that knows only Backend sees every batch. It returns how
// many batches were encrypted: all, or those before the one whose error it
// returns; nothing after that one was.
func EncryptVecs(b Backend, out [][]Ciphertext, pk *PublicKey, batches [][]mpint.Nat, seeds []uint64) (int, error) {
	if len(seeds) != len(batches) || len(out) != len(batches) {
		return 0, fmt.Errorf("paillier: EncryptVecs has %d seeds and %d results for %d batches", len(seeds), len(out), len(batches))
	}
	if be, ok := b.(BatchEncrypter); ok {
		return be.EncryptVecs(out, pk, batches, seeds)
	}
	for j, ms := range batches {
		cts, err := b.EncryptVec(pk, ms, seeds[j])
		if err != nil {
			return j, err
		}
		out[j] = cts
	}
	return len(batches), nil
}

// GPUBackend lowers batched operations onto the GPU-HE executor, following
// the pipeline of Fig. 4: convert, copy to device, compute in parallel, copy
// back. The executor (ghe.CheckedEngine) runs every op over its fleet —
// verify, retry, steal, fail over to the host loop — so the backend serves
// whatever the fleet can, a fleet of no member included: there the host loop
// serves every op.
type GPUBackend struct {
	eng *ghe.CheckedEngine
}

// NewGPUBackend wraps the GPU-HE executor.
func NewGPUBackend(e *ghe.CheckedEngine) (*GPUBackend, error) {
	if e == nil {
		return nil, fmt.Errorf("paillier: NewGPUBackend needs an engine")
	}
	return &GPUBackend{eng: e}, nil
}

// kernel runs one op of n results in a frame of its own, with staging for the
// op's results and its ciphertext operands, which run carves and fills (view)
// as it states the op. The results land in a batch drawn from the pool
// (DrawBatch), its values handed to the frame (ghe.Frame.Into) so the lanes
// write into a dead batch's limbs; what comes back is Fig. 4's convert step
// on the way down, that batch, the caller's to keep or release. A failed op's
// batch goes back to the pool: no lane of it runs past the op.
func (g *GPUBackend) kernel(name string, n, staging int, run func(f *ghe.Frame) ([]mpint.Nat, error)) ([]Ciphertext, error) {
	f := g.eng.Frame(staging)
	defer f.Release()
	out := DrawBatch(n)
	f.Into(view(f, out))
	dst, err := run(f)
	if err != nil {
		ReleaseBatch(out)
		return nil, fmt.Errorf("paillier: gpu %s: %w", name, err)
	}
	for i, c := range dst {
		out[i] = Ciphertext{C: c}
	}
	return out, nil
}

// view is cs as the []Nat a kernel reads, carved out of f: the convert step on
// the way up.
func view(f *ghe.Frame, cs []Ciphertext) []mpint.Nat {
	v := f.Vec(len(cs))
	for i, c := range cs {
		v[i] = c.C
	}
	return v
}

// GenerateKey implements Backend with the rounds as miller_rabin_vec launches
// on the engine, a window of them a launch.
func (g *GPUBackend) GenerateKey(rng *mpint.RNG, bits int) (*PrivateKey, error) {
	return generateKey(g.eng.PrimeSearch(), rng, bits)
}

// EncryptVec implements Backend as EncryptVecs over one batch.
func (g *GPUBackend) EncryptVec(pk *PublicKey, ms []mpint.Nat, seed uint64) ([]Ciphertext, error) {
	batch, seeds := [1][]mpint.Nat{ms}, [1]uint64{seed}
	var out [1][]Ciphertext
	if _, err := g.EncryptVecs(out[:], pk, batch[:], seeds[:]); err != nil {
		return nil, err
	}
	return out[0], nil
}

// EncryptVecs implements BatchEncrypter as one kernel a batch, their lanes run
// as one job (ghe.Frame.EncryptVecs): every lane draws its nonce, raises it to
// n and multiplies gᵐ in, through the factorisation when pk is the holder's
// handle. Only the plaintexts go up and only the ciphertexts come back, into
// a batch drawn from the pool a plaintext batch, whose values the frame hands
// the lanes to write into, as kernel's results are. The batches of those not
// encrypted go back to the pool.
func (g *GPUBackend) EncryptVecs(out [][]Ciphertext, pk *PublicKey, batches [][]mpint.Nat, seeds []uint64) (int, error) {
	if len(out) != len(batches) {
		return 0, fmt.Errorf("paillier: gpu EncryptVecs has %d results for %d batches", len(out), len(batches))
	}
	total := 0
	for _, ms := range batches {
		total += len(ms)
	}
	f := g.eng.Frame(total)
	defer f.Release()
	dst, off := f.Vec(total), 0
	for j, ms := range batches {
		out[j] = DrawBatch(len(ms))
		for i, c := range out[j] {
			dst[off+i] = c.C
		}
		off += len(ms)
	}
	key := ghe.EncryptKey{N: pk.N, N2: pk.montN2, Sched: pk.nSched, CRT: pk.own}
	done, err := f.EncryptVecs(dst, batches, key, seeds)
	for j := range batches {
		if j >= done {
			ReleaseBatch(out[j])
			out[j] = nil
			continue
		}
		for i := range out[j] {
			out[j][i] = Ciphertext{C: dst[i]}
		}
		dst = dst[len(out[j]):]
	}
	if err != nil {
		return done, fmt.Errorf("paillier: gpu EncryptVecs: %w", err)
	}
	return done, nil
}

// DecryptVec implements Backend as a single kernel through the factorisation:
// a lane raises its ciphertext to p−1 over p² and to q−1 over q² — exponents
// half the bits of λ, on operands with half the limbs — takes L, multiplies
// the key's constants in and recombines, and hands back the plaintext alone,
// into the limbs of a batch drawn from the pool as kernel's results are (one
// allocation a plaintext where the pool had none).
func (g *GPUBackend) DecryptVec(sk *PrivateKey, cs []Ciphertext) ([]mpint.Nat, error) {
	for i, c := range cs {
		if c.C.IsZero() || mpint.Cmp(c.C, sk.N2) >= 0 {
			return nil, fmt.Errorf("paillier: gpu DecryptVec[%d]: ciphertext out of range", i)
		}
	}
	f := g.eng.Frame(2 * len(cs))
	defer f.Release()
	limbs := DrawBatch(len(cs))
	f.Into(view(f, limbs))
	key := ghe.DecryptKey{CRT: sk.crt, HP: sk.hp, HQ: sk.hq, Lambda: sk.Lambda, Mu: sk.mu}
	pts, err := f.DecryptVec(view(f, cs), key)
	if err != nil {
		return nil, fmt.Errorf("paillier: gpu DecryptVec: %w", err)
	}
	out := append(make([]mpint.Nat, 0, len(cs)), pts...)
	clear(limbs) // the limbs are the plaintexts': only the slice goes back
	ReleaseBatch(limbs)
	return out, nil
}

// AddVec implements Backend as a single modular-multiplication kernel.
func (g *GPUBackend) AddVec(pk *PublicKey, a, b []Ciphertext) ([]Ciphertext, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("paillier: AddVec length mismatch %d vs %d", len(a), len(b))
	}
	return g.kernel("AddVec", len(a), 3*len(a), func(f *ghe.Frame) ([]mpint.Nat, error) {
		return f.ModMulVec(view(f, a), view(f, b), pk.MontN2())
	})
}

// MulPlainVec implements Backend as a variable-exponent modexp kernel.
func (g *GPUBackend) MulPlainVec(pk *PublicKey, cs []Ciphertext, ks []mpint.Nat) ([]Ciphertext, error) {
	if len(cs) != len(ks) {
		return nil, fmt.Errorf("paillier: MulPlainVec length mismatch %d vs %d", len(cs), len(ks))
	}
	return g.kernel("MulPlainVec", len(cs), 2*len(cs), func(f *ghe.Frame) ([]mpint.Nat, error) {
		return f.ModExpVarVec(view(f, cs), ks, pk.MontN2())
	})
}

// WeightedSumVec implements Backend as one shared-table multi-exponentiation
// kernel: every sum of the call in a single launch.
func (g *GPUBackend) WeightedSumVec(pk *PublicKey, cs []Ciphertext, sums [][]mpint.Term) ([]Ciphertext, error) {
	return g.kernel("WeightedSumVec", len(sums), len(cs)+len(sums), func(f *ghe.Frame) ([]mpint.Nat, error) {
		return f.MultiExpVec(view(f, cs), sums, pk.MontN2())
	})
}

// ShiftPackVec implements Backend as one kernel: a lane a packed ciphertext
// runs its pack's whole Horner chain.
func (g *GPUBackend) ShiftPackVec(pk *PublicKey, cs []Ciphertext, slots, slotBits int) ([]Ciphertext, error) {
	width := max(slots, 1) // below 1 the frame rejects the op
	packs := (len(cs) + width - 1) / width
	return g.kernel("ShiftPackVec", packs, 2*len(cs), func(f *ghe.Frame) ([]mpint.Nat, error) {
		return f.ShiftPackVec(view(f, cs), slots, slotBits, pk.MontN2())
	})
}
