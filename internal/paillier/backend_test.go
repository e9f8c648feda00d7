package paillier

import (
	"testing"

	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// TestNewGPUBackendRejectsNilEngines: a nil executor must be rejected at
// construction, not panic on first use.
func TestNewGPUBackendRejectsNilEngines(t *testing.T) {
	if _, err := NewGPUBackend(nil); err == nil {
		t.Fatal("nil engine must be rejected")
	}
	if b, err := NewGPUBackend(executor(t, gpu.SmallTestDevice(), 1, ghe.CheckedConfig{})); err != nil || b == nil {
		t.Fatalf("valid engine rejected: %v", err)
	}
}

// hostSearchKey is generateKey on the host loop's walk, one Miller–Rabin
// round after the other: the key every stack's GenerateKey is held to.
func hostSearchKey(rng *mpint.RNG, bits int) (*PrivateKey, error) {
	return generateKey(mpint.HostSearch, rng, bits)
}

// hostBackend is the stack of the CPU profiles: the executor over a set of no
// device, so the host loop serves every op, one item at a time.
func hostBackend(tb testing.TB) *GPUBackend {
	tb.Helper()
	return mustGPUBackend(executor(tb, gpu.SmallTestDevice(), 0, ghe.CheckedConfig{}))
}

// serialWeightedSums is a weighted sum the way FATE computes it, and the
// oracle WeightedSumVec's multi_exp_vec kernel is held to: one
// ciphertext-scalar product and one homomorphic addition a term, in order, a
// negative term's product taken over its ciphertext's inverse mod n², one
// inverse a ciphertext a call. A sum without a term is the ciphertext 1.
func serialWeightedSums(pk *PublicKey, cs []Ciphertext, sums [][]mpint.Term) ([]Ciphertext, error) {
	if err := mpint.CheckTerms(len(cs), sums); err != nil {
		return nil, err
	}
	inv := map[int]mpint.Nat{}
	out := make([]Ciphertext, len(sums))
	for j, sum := range sums {
		acc, empty := Ciphertext{C: mpint.One()}, true
		for _, t := range sum {
			if t.Weight == 0 {
				continue
			}
			term := cs[t.Index]
			if t.Neg {
				c, ok := inv[t.Index]
				if !ok {
					if c, ok = mpint.ModInverse(term.C, pk.N2); !ok {
						return nil, mpint.ErrNotInvertible
					}
					inv[t.Index] = c
				}
				term = Ciphertext{C: c}
			}
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

// hornerPack is the oracle of ShiftPackVec's shift_pack_vec kernel: each
// pack by Horner's rule from its top slot down, one ciphertext-scalar product
// and one homomorphic addition a step.
func hornerPack(pk *PublicKey, cs []Ciphertext, slots, slotBits int) []Ciphertext {
	shift := mpint.Lsh(mpint.One(), uint(slotBits))
	out := make([]Ciphertext, (len(cs)+slots-1)/slots)
	for i := range out {
		pack := cs[i*slots : min((i+1)*slots, len(cs))]
		acc := pack[len(pack)-1]
		for j := len(pack) - 2; j >= 0; j-- {
			acc = pk.Add(pk.MulPlain(acc, shift), pack[j])
		}
		out[i] = acc
	}
	return out
}

// mustGPUBackend is NewGPUBackend for known-good engines; it panics on error.
func mustGPUBackend(e *ghe.CheckedEngine) *GPUBackend {
	g, err := NewGPUBackend(e)
	if err != nil {
		panic(err)
	}
	return g
}
