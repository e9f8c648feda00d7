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
	sk, err := hostSearchKey(mpint.NewRNG(2), 2048)
	if err != nil {
		t.Fatal(err)
	}
	pk := &sk.PublicKey
	// One host worker: AllocsPerRun counts the whole process, and a second
	// worker's scheduling allocations are not the batch's.
	cfg := gpu.RTX3090()
	cfg.HostWorkers = 1
	be := mustGPUBackend(executor(t, cfg, 1, ghe.CheckedConfig{}))
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
		// Measured 1.25 each at this width: a value an element and the batch
		// the caller keeps, over four ciphertexts. Operand views, the kernel's
		// destination and the op's descriptor are a pooled frame, and a launch
		// allocates nothing. An encryption allocates its ciphertext alone —
		// nonce, rⁿ and gᵐ live in the key's pooled scratch, the schedule of n
		// with the key — and a decryption its plaintext alone: both half-width
		// powers, L and Garner on the key's scratch, one launch (ceiling 9 when
		// it was two launches whose powers came back to the host; 12 for an
		// encryption of three launches). A homomorphic addition is its product
		// — the operand's Montgomery form stays in the pooled scratch (ceiling
		// 5 while three operand and result vectors rode along).
		{"EncryptVec", 2, func() error { _, err := be.EncryptVec(pk, pts, 11); return err }},
		{"EncryptVec (holder)", 2, func() error { _, err := be.EncryptVec(sk.Holder(), pts, 11); return err }},
		{"DecryptVec", 2.5, func() error { _, err := be.DecryptVec(sk, cts); return err }},
		{"AddVec", 2, func() error { _, err := be.AddVec(pk, cts, cts); return err }},
		// Four sums over the four ciphertexts: a residue a sum, and the
		// launch's constant (measured 1.5 a sum at this width).
		{"WeightedSumVec", 2.5, func() error { _, err := be.WeightedSumVec(pk, cts, sums); return err }},
	} {
		got := testing.AllocsPerRun(3, func() {
			if err := tc.fn(); err != nil {
				t.Fatal(err)
			}
		}) / width
		if got > tc.max {
			t.Errorf("%s: %.1f allocs per ciphertext, ceiling %.1f", tc.name, got, tc.max)
		} else {
			t.Logf("%s: %.1f allocs per ciphertext (ceiling %.1f)", tc.name, got, tc.max)
		}
	}
}

// leastAllocs is the fewest allocations one call of fn made over three
// samples. AllocsPerRun counts the whole process, so a runtime allocation that
// lands in one sample under a loaded machine is noise the minimum drops; what
// every sample makes is the call's own.
func leastAllocs(fn func()) float64 {
	least := testing.AllocsPerRun(1, fn)
	for range 2 {
		least = min(least, testing.AllocsPerRun(1, fn))
	}
	return least
}

// TestEncryptVecAllocSlope pins an encryption at one heap allocation — the
// ciphertext — under either handle, and a decryption at one — the plaintext —
// on the executor over one device, on one whose device is dead and on one
// with no device, so the host loop serves it: the slope between two widths,
// which leaves out the per-launch constant.
func TestEncryptVecAllocSlope(t *testing.T) {
	sk := keyOfSize(t, 1024)
	cfg := gpu.RTX3090()
	cfg.HostWorkers = 1 // AllocsPerRun counts the whole process
	pts := plaintexts(128, sk.N)
	for name, eng := range map[string]*ghe.CheckedEngine{
		"executor":  executor(t, cfg, 1, ghe.CheckedConfig{}),
		"host":      hostExecutor(t, cfg),
		"no device": executor(t, cfg, 0, ghe.CheckedConfig{}),
	} {
		be := mustGPUBackend(eng)
		for _, h := range handles(sk) {
			allocs := func(width int) float64 {
				return leastAllocs(func() {
					if _, err := be.EncryptVec(h.pk, pts[:width], 11); err != nil {
						t.Fatal(err)
					}
				})
			}
			wide, narrow := allocs(128), allocs(64)
			t.Logf("%s, %s handle: %.0f allocs at 128 ciphertexts, %.0f at 64", name, h.name, wide, narrow)
			if per := (wide - narrow) / 64; per > 1 {
				t.Errorf("%s, %s handle: %.2f allocs per ciphertext, ceiling 1", name, h.name, per)
			}
		}
		cts, err := be.EncryptVec(sk.Holder(), pts, 11)
		if err != nil {
			t.Fatal(err)
		}
		decrypt := func(width int) float64 {
			return leastAllocs(func() {
				if _, err := be.DecryptVec(sk, cts[:width]); err != nil {
					t.Fatal(err)
				}
			})
		}
		wide, narrow := decrypt(128), decrypt(64)
		t.Logf("%s: %.0f allocs at 128 decryptions, %.0f at 64", name, wide, narrow)
		if per := (wide - narrow) / 64; per > 1 {
			t.Errorf("%s: %.2f allocs per decryption, ceiling 1", name, per)
		}
	}
}

// TestPooledBatchesAllocateNoLimbs: a batch released to the pool is what the
// next one is written into. A holder's encryption and a homomorphic addition
// whose result batch follows a released one of its width allocate no value —
// only the pool's slice bookkeeping, a constant a call. The addition row is
// also an aggregation tree's fold, which releases the sum it replaces.
func TestPooledBatchesAllocateNoLimbs(t *testing.T) {
	sk := keyOfSize(t, 1024)
	cfg := gpu.RTX3090()
	cfg.HostWorkers = 1 // AllocsPerRun counts the whole process
	be := mustGPUBackend(executor(t, cfg, 1, ghe.CheckedConfig{}))
	const width = 32
	pts := plaintexts(width, sk.N)
	cts, err := be.EncryptVec(sk.Holder(), pts, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		fn   func() error
	}{
		{"EncryptVec (holder)", func() error {
			out, err := be.EncryptVec(sk.Holder(), pts, 11)
			ReleaseBatch(out)
			return err
		}},
		{"AddVec", func() error {
			out, err := be.AddVec(&sk.PublicKey, cts, cts)
			ReleaseBatch(out)
			return err
		}},
	} {
		got := testing.AllocsPerRun(5, func() {
			if err := tc.fn(); err != nil {
				t.Fatal(err)
			}
		})
		if got > 2 {
			t.Errorf("%s: %.1f allocs a batch of %d, want <= 2", tc.name, got, width)
		} else {
			t.Logf("%s: %.1f allocs a batch of %d", tc.name, got, width)
		}
	}
}

// TestBatchPoolIsClassedByWidth: the pool hands a draw a dead batch of its own
// width. A 32-wide draw made after a 32-wide release and then the release of
// four 2-wide batches — a vertical step's residual batch after its score
// batches — gets the 32-wide batch, every value with limbs behind it; one pool
// for every width handed it the last 2-wide batch, thirty values short.
func TestBatchPoolIsClassedByWidth(t *testing.T) {
	wide := DrawBatch(32)
	for i := range wide {
		wide[i].C = append(wide[i].C, make(mpint.Nat, 16)...)
	}
	ReleaseBatch(wide)
	var narrow [4][]Ciphertext // live together, as a step's party batches are
	for b := range narrow {
		narrow[b] = DrawBatch(2)
		for i := range narrow[b] {
			narrow[b][i].C = append(narrow[b][i].C, 1)
		}
	}
	for b := len(narrow) - 1; b >= 0; b-- { // last drawn, first released
		ReleaseBatch(narrow[b])
	}
	for i, c := range DrawBatch(32) {
		if cap(c.C) < 16 {
			t.Fatalf("value %d of a 32-wide draw after 2-wide releases has %d limbs behind it, want 16", i, cap(c.C))
		}
	}
}

// TestReleaseAllocatesNothing: a warm draw-and-release cycle allocates
// nothing — the header the pool keeps a batch behind is recycled, not boxed
// afresh at every release.
func TestReleaseAllocatesNothing(t *testing.T) {
	for _, n := range []int{1, 2, 33} {
		ReleaseBatch(DrawBatch(n))
		if got := testing.AllocsPerRun(100, func() { ReleaseBatch(DrawBatch(n)) }); got != 0 {
			t.Errorf("draw and release of %d: %.1f allocs, want 0", n, got)
		}
	}
}

// TestBatchedWaveAllocCeiling: a wave of encryptions as one job allocates
// nothing a launch beyond what the launch costs on its own. Sixteen 4-wide
// batches through EncryptVecs on the executor — deferred lanes, one job,
// pooled batches released after — against the same batches one EncryptVec at
// a time, at a 1,024-bit key under the holder's handle: the batched wave's
// allocations grow by no more a batch than a lone batch's call allocates, and
// the wave of sixteen allocates no more than the sixteen calls.
func TestBatchedWaveAllocCeiling(t *testing.T) {
	sk := keyOfSize(t, 1024)
	cfg := gpu.RTX3090()
	cfg.HostWorkers = 1 // AllocsPerRun counts the whole process
	be := mustGPUBackend(executor(t, cfg, 1, ghe.CheckedConfig{}))
	const members, width = 16, 4
	batches, seeds := make([][]mpint.Nat, members), make([]uint64, members)
	for j := range batches {
		batches[j], seeds[j] = plaintexts(width, sk.N), uint64(j+1)
	}
	out := make([][]Ciphertext, members)
	wave := func(n int) func() {
		return func() {
			if _, err := be.EncryptVecs(out[:n], sk.Holder(), batches[:n], seeds[:n]); err != nil {
				t.Fatal(err)
			}
			for _, b := range out[:n] {
				ReleaseBatch(b)
			}
		}
	}
	each := func() {
		for j := range batches {
			b, err := be.EncryptVec(sk.Holder(), batches[j], seeds[j])
			if err != nil {
				t.Fatal(err)
			}
			ReleaseBatch(b)
		}
	}
	wave(members)() // warm the pools at the wave's width
	one, eight, sixteen := leastAllocs(wave(1)), leastAllocs(wave(8)), leastAllocs(wave(16))
	calls := leastAllocs(each)
	t.Logf("EncryptVecs: %.0f allocs for 1 batch, %.0f for 8, %.0f for 16; 16 EncryptVec calls %.0f", one, eight, sixteen, calls)
	if per := (sixteen - eight) / 8; per > one {
		t.Errorf("%.2f allocs a batch in a wave, a lone batch's call allocates %.0f", per, one)
	}
	if sixteen > calls {
		t.Errorf("a wave of %d allocates %.0f, its batches one call at a time %.0f", members, sixteen, calls)
	}
}
