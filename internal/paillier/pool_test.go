package paillier

import (
	"testing"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// TestReleaseZeroesWhatItTakesBack: a released batch's limbs are cleared
// before they enter the pool, so no ciphertext — nor the plaintext limbs a
// decryption draws — waits in a process-wide pool, and a value kept past its
// batch's release reads zero, which fails the bit-exact suites loudly instead
// of passing by luck.
func TestReleaseZeroesWhatItTakesBack(t *testing.T) {
	sk := testKey(t)
	be := mustGPUBackend(hostExecutor(t, gpu.SmallTestDevice()))
	cts, err := be.EncryptVec(sk.Holder(), []mpint.Nat{mpint.FromUint64(7), mpint.FromUint64(9)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	kept := cts[1].C
	if kept.IsZero() {
		t.Fatal("a ciphertext is zero before its release")
	}
	ReleaseBatch(cts)
	for i, w := range kept[:cap(kept)] {
		if w != 0 {
			t.Fatalf("limb %d of a released ciphertext still reads %#x", i, w)
		}
	}
	if !kept.IsZero() {
		t.Fatal("a value kept past its release does not read zero")
	}
}

// TestDrawnBatchIsWholeAndEmpty: the values of a drawn batch are empty,
// whatever the pool holds, and a batch wider than any released one still
// comes out whole.
func TestDrawnBatchIsWholeAndEmpty(t *testing.T) {
	for _, n := range []int{0, 3, 40} {
		b := DrawBatch(n)
		if len(b) != n {
			t.Fatalf("drew %d ciphertexts for %d", len(b), n)
		}
		for i, c := range b {
			if len(c.C) != 0 {
				t.Fatalf("value %d of a drawn batch holds %d limbs", i, len(c.C))
			}
			b[i].C = append(c.C, 1, 2, 3)
		}
		ReleaseBatch(b)
	}
}
