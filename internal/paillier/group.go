package paillier

import "fmt"

// Accumulator is a per-group homomorphic aggregation context: it folds
// ciphertext batches into a running sum through a backend, one context per
// secure-aggregation group, so group-wise robust aggregation can sum each
// group's clients independently without ever mixing sub-aggregates. The
// first batch fixes the vector length; later batches must match it.
//
// The running sum is the accumulator's own batch, drawn from the pool: the
// first batch is adopted by copying its limbs, never by aliasing them, and
// each fold releases the sum it replaces (ReleaseBatch), so a long fold
// alternates between two pooled batches. The batches Add is given stay their
// caller's.
type Accumulator struct {
	pk      *PublicKey
	backend Backend
	sum     []Ciphertext
	batches int
}

// NewAccumulator builds an empty aggregation context.
func NewAccumulator(pk *PublicKey, backend Backend) (*Accumulator, error) {
	if pk == nil {
		return nil, fmt.Errorf("paillier: NewAccumulator needs a public key")
	}
	if backend == nil {
		return nil, fmt.Errorf("paillier: NewAccumulator needs a backend")
	}
	return &Accumulator{pk: pk, backend: backend}, nil
}

// Add folds one client's ciphertext batch into the group sum.
func (a *Accumulator) Add(cts []Ciphertext) error {
	if len(cts) == 0 {
		return fmt.Errorf("paillier: accumulate an empty batch")
	}
	if a.sum == nil {
		a.sum = DrawBatch(len(cts))
		for i, c := range cts {
			a.sum[i].C = append(a.sum[i].C, c.C...)
		}
		a.batches = 1
		return nil
	}
	if len(cts) != len(a.sum) {
		return fmt.Errorf("paillier: accumulate %d ciphertexts into a %d-wide group", len(cts), len(a.sum))
	}
	sum, err := a.backend.AddVec(a.pk, a.sum, cts)
	if err != nil {
		return err
	}
	ReleaseBatch(a.sum)
	a.sum = sum
	a.batches++
	return nil
}

// Batches returns how many client batches were folded in.
func (a *Accumulator) Batches() int { return a.batches }

// Sum returns the group's homomorphic sum, the accumulator's batch until the
// next Add releases it. It fails on an empty context — an empty group has no
// aggregate, and returning one silently would let a grouping bug masquerade
// as a zero update.
func (a *Accumulator) Sum() ([]Ciphertext, error) {
	if a.sum == nil {
		return nil, fmt.Errorf("paillier: sum of an empty accumulator")
	}
	return a.sum, nil
}
