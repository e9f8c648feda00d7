package paillier

import (
	"testing"
	"time"

	"flbooster/internal/ghe"
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
	be := MustGPUBackend(ghe.NewCPUEngine())
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

// TestKernelUnderWatchdogWritesFreshLimbs: under a launch watchdog an
// abandoned attempt's lanes may still write their result vector, so there the
// backend's results are fresh limbs whatever the pool holds, and the batch
// still decrypts to its sums.
func TestKernelUnderWatchdogWritesFreshLimbs(t *testing.T) {
	sk := testKey(t)
	cfg := gpu.SmallTestDevice()
	cfg.KernelDeadline = time.Minute
	be := MustGPUBackend(ghe.MustEngine(gpu.MustNew(cfg, true)))
	pk := &sk.PublicKey
	a, err := be.EncryptVec(sk.Holder(), []mpint.Nat{mpint.FromUint64(5), mpint.FromUint64(6)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	dead := DrawBatch(2)
	for i := range dead {
		dead[i].C = append(dead[i].C, make(mpint.Nat, len(sk.N2))...)
	}
	released := map[*mpint.Word]bool{&dead[0].C[:1][0]: true, &dead[1].C[:1][0]: true}
	ReleaseBatch(dead)
	sum, err := be.AddVec(pk, a, a)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range sum {
		if released[&c.C[:1][0]] {
			t.Fatalf("sum %d was written into a released batch's limbs under a watchdog", i)
		}
	}
	pts, err := be.DecryptVec(sk, sum)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{10, 12} {
		if v, ok := pts[i].Uint64(); !ok || v != want {
			t.Fatalf("slot %d decrypts to %v, want %d", i, pts[i], want)
		}
	}
}
