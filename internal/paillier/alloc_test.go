//go:build !race

// Under the race detector sync.Pool drops a quarter of its Puts on purpose, so
// the pooled Montgomery scratch is re-allocated at random and allocation
// counts stop meaning anything; these pins run in the plain test pass.

package paillier

import (
	"testing"

	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// TestAllocCeilingsPerCiphertext pins the heap allocations of the GPU
// backend's batch paths at a production-size key, per ciphertext. The counts
// do not depend on the machine; seed 2 is simply a quick 2048-bit prime
// search.
func TestAllocCeilingsPerCiphertext(t *testing.T) {
	sk, err := GenerateKey(mpint.NewRNG(2), 2048)
	if err != nil {
		t.Fatal(err)
	}
	pk := &sk.PublicKey
	// One host worker: AllocsPerRun counts the whole process, and a second
	// worker's scheduling allocations are not the batch's.
	cfg := gpu.RTX3090()
	cfg.HostWorkers = 1
	be := MustGPUBackend(ghe.MustEngine(gpu.MustNew(cfg, true)))
	const width = 4
	r := mpint.NewRNG(3)
	pts := make([]mpint.Nat, width)
	for i := range pts {
		pts[i] = r.RandBelow(pk.N)
	}
	cts, err := be.EncryptVec(pk, pts, 11)
	if err != nil {
		t.Fatal(err)
	}
	sums := make([][]mpint.Term, width)
	for j := range sums {
		for i := range cts {
			sums[j] = append(sums[j], mpint.Term{Index: i, Weight: uint64(100*j + i + 2)})
		}
	}
	for _, tc := range []struct {
		name string
		max  float64
		fn   func() error
	}{
		// Measured 10.8, 10.2, 7.0 and 3.0 at this width (three, three, two
		// and one launches' fixed allocations spread over four ciphertexts);
		// the ceilings are that plus two, rounded down. The owner's encryption
		// may not allocate more than anybody else's; decryption is the two
		// half-width powers and the plaintext per ciphertext; a homomorphic
		// addition is its product — the operand's Montgomery form stays in the
		// pooled scratch — and so is the gᵐ·rⁿ product of an encryption.
		{"EncryptVec", 12, func() error { _, err := be.EncryptVec(pk, pts, 11); return err }},
		{"EncryptVec (holder)", 12, func() error { _, err := be.EncryptVec(sk.Holder(), pts, 11); return err }},
		{"DecryptVec", 9, func() error { _, err := be.DecryptVec(sk, cts); return err }},
		{"AddVec", 5, func() error { _, err := be.AddVec(pk, cts, cts); return err }},
		// Four sums over the four ciphertexts: a residue a sum, and the
		// launch's constant (measured 3.2 a sum at this width).
		{"WeightedSumVec", 5, func() error { _, err := be.WeightedSumVec(pk, cts, sums); return err }},
	} {
		got := testing.AllocsPerRun(3, func() {
			if err := tc.fn(); err != nil {
				t.Fatal(err)
			}
		}) / width
		if got > tc.max {
			t.Errorf("%s: %.1f allocs per ciphertext, ceiling %.0f", tc.name, got, tc.max)
		} else {
			t.Logf("%s: %.1f allocs per ciphertext (ceiling %.0f)", tc.name, got, tc.max)
		}
	}
}
