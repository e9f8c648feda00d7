package ghe

import (
	"errors"
	"fmt"
	"math/big"
	"testing"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// testCRT compiles the factorisation of a fresh `bits`-bit two-prime modulus
// and the Montgomery context mod its square.
func testCRT(t testing.TB, r *mpint.RNG, bits int) (*mpint.CRT, *mpint.Mont) {
	t.Helper()
	p, q := r.RandSafePrimePair(bits / 2)
	crt, err := mpint.NewCRT(p, q)
	if err != nil {
		t.Fatal(err)
	}
	return crt, mpint.NewMont(mpint.Mul(crt.N(), crt.N()))
}

// encKey is the key testCRT built as EncryptVec takes it: the holder's handle,
// with the factorisation, or the one anybody else has.
func encKey(crt *mpint.CRT, n2 *mpint.Mont, holder bool) EncryptKey {
	key := EncryptKey{N: crt.N(), N2: n2, Sched: mpint.CompileExpAuto(crt.N())}
	if holder {
		key.CRT = crt
	}
	return key
}

// textbookEncrypt is what EncryptVec(ms, key, seed) must return on any
// engine under either handle, by math/big: (1 + m·n)·rⁿ mod n² under the
// nonces the stream defines.
func textbookEncrypt(ms []mpint.Nat, n mpint.Nat, seed uint64) []mpint.Nat {
	bn := toBig(n)
	bn2 := new(big.Int).Mul(bn, bn)
	out := make([]mpint.Nat, len(ms))
	for i, m := range ms {
		c := new(big.Int).Mul(toBig(m), bn)
		c.Mul(c.Add(c, big.NewInt(1)), new(big.Int).Exp(toBig(RandCoprimeAt(seed, i, n)), bn, bn2))
		out[i] = mpint.FromBytes(c.Mod(c, bn2).Bytes())
	}
	return out
}

// threeLaunches replays on dev what the lowering encrypt_vec replaced charged
// for a batch of `items` encryptions: rand_coprime_vec (nothing up, the nonces
// down), pow_n_crt_vec for a holder or mod_exp_vec for anybody else (the
// nonces up again, rⁿ down), and mod_mul_vec (gᵐ and rⁿ up at the width of n²,
// the products down) — the kernels and copies of ops.go at the parent commit.
func threeLaunches(t *testing.T, dev *gpu.Device, items int, crt *mpint.CRT, n2 *mpint.Mont, holder bool) {
	t.Helper()
	kn, k := limbs32(crt.N()), n2.Limbs()
	st := crt.Stages()
	exp := gpu.Kernel{Name: "mod_exp_vec", RegsPerThread: regsForLimbs(k), WordOps: modExpWordOps(k, crt.N().BitLen())}
	expUp := natBytes(items+1, k)
	if holder {
		exp = gpu.Kernel{Name: "pow_n_crt_vec", RegsPerThread: regsForLimbs(max(st[1].Limbs, st[3].Limbs)), WordOps: powNWordOps(st)}
		expUp = natBytes(items, kn) + natBytes(1, 2*st[0].Limbs+2*st[2].Limbs+st[1].Limbs)
	}
	for _, l := range []struct {
		kern     gpu.Kernel
		up, down int64
	}{
		{gpu.Kernel{Name: "rand_coprime_vec", RegsPerThread: 24, WordOps: nonceWordOps(kn)}, 0, natBytes(items, kn)},
		{exp, expUp, natBytes(items, k)},
		{gpu.Kernel{Name: "mod_mul_vec", RegsPerThread: regsForLimbs(k), WordOps: 3 * montMulWordOps(k)}, 2 * natBytes(items, k), natBytes(items, k)},
	} {
		if l.up > 0 {
			dev.CopyToDevice(l.up)
		}
		l.kern.Items, l.kern.Body = items, gpu.LaneFunc(func(int) {})
		if _, err := dev.Launch(l.kern); err != nil {
			t.Fatal(err)
		}
		dev.CopyFromDevice(l.down)
	}
}

// TestEncryptVecOneLaunchUnderThree: encryption is one launch on the device
// counters, and at 512 and 2,048 bits, under either handle, the device prices
// it strictly below the three launches it replaced on every counter they
// moved: compute, bytes up, bytes down, and so modelled time. The holder's
// kernel is no wider than the rⁿ kernel it grew out of — the whole ciphertext
// goes through p² and q², nothing at the width of n² — so occupancy holds.
func TestEncryptVecOneLaunchUnderThree(t *testing.T) {
	const items, seed = 33, 99
	for _, bits := range []int{512, 2048} {
		r := mpint.NewRNG(uint64(0x90 + bits))
		crt, n2 := testCRT(t, r, bits)
		ms := randVec(r, items, crt.N())
		want := textbookEncrypt(ms, crt.N(), seed)
		for _, holder := range []bool{true, false} {
			fused := executorOn(t, gpu.RTX3090(), 1, CheckedConfig{})
			got, err := fused.EncryptVec(ms, encKey(crt, n2, holder), seed)
			if err != nil {
				t.Fatal(err)
			}
			sameVec(t, "encrypt_vec", got, want)
			old := gpu.MustNew(gpu.RTX3090(), true)
			threeLaunches(t, old, items, crt, n2, holder)
			f, o := fused.Devices()[0].Stats(), old.Stats()
			t.Logf("%d bits, holder %v: one launch %v compute, %d B up, %d B down, %v in all; three launches %v, %d, %d, %v",
				bits, holder, f.SimComputeTime, f.BytesHostToDev, f.BytesDevToHost, f.SimTime(),
				o.SimComputeTime, o.BytesHostToDev, o.BytesDevToHost, o.SimTime())
			if f.KernelLaunches != 1 || o.KernelLaunches != 3 {
				t.Fatalf("launches: fused %d, replaced %d, want 1 and 3", f.KernelLaunches, o.KernelLaunches)
			}
			if f.SimComputeTime >= o.SimComputeTime || f.SimTime() >= o.SimTime() {
				t.Errorf("%d bits, holder %v: fused compute %v / time %v not below the three launches' %v / %v",
					bits, holder, f.SimComputeTime, f.SimTime(), o.SimComputeTime, o.SimTime())
			}
			if f.BytesHostToDev >= o.BytesHostToDev || f.BytesDevToHost >= o.BytesDevToHost {
				t.Errorf("%d bits, holder %v: fused moves %d B up / %d B down, the three launches %d / %d",
					bits, holder, f.BytesHostToDev, f.BytesDevToHost, o.BytesHostToDev, o.BytesDevToHost)
			}
		}
		st := crt.Stages()
		op, err := newEncryptOp(make([]mpint.Nat, len(ms)), ms, encKey(crt, n2, true), seed)
		if err != nil {
			t.Fatal(err)
		}
		if got, was := op.kernel(32).RegsPerThread, regsForLimbs(max(st[1].Limbs, st[3].Limbs)); got > was || got >= regsForLimbs(n2.Limbs()) {
			t.Errorf("%d bits: the holder's kernel wants %d registers; pow_n_crt_vec wanted %d, the n² window %d", bits, got, was, regsForLimbs(n2.Limbs()))
		}
		if own, public := encryptCRTWordOps(limbs32(crt.N()), st), encryptWordOps(limbs32(crt.N()), n2.Limbs(), crt.N().BitLen()); 3*own >= public {
			t.Errorf("%d bits: cost formula prices the holder at %d word-ops, anybody else at %d", bits, own, public)
		}
	}
}

// TestEncryptVecRejectsBeforeUpload: an empty batch is no op at all, and a
// plaintext at or above n rejects typed with nothing launched or uploaded.
func TestEncryptVecRejectsBeforeUpload(t *testing.T) {
	r := mpint.NewRNG(0x91)
	crt, n2 := testCRT(t, r, 128)
	eng := testEngine(t)
	for _, holder := range []bool{true, false} {
		if out, err := eng.EncryptVec(nil, encKey(crt, n2, holder), 1); err != nil || len(out) != 0 {
			t.Fatalf("empty batch: %v, %d results", err, len(out))
		}
		for _, bad := range []mpint.Nat{crt.N(), mpint.AddWord(crt.N(), 1), mpint.Lsh(crt.N(), 64)} {
			ms := append(randVec(r, 3, crt.N()), bad)
			if _, err := eng.EncryptVec(ms, encKey(crt, n2, holder), 1); !errors.Is(err, ErrPlaintext) {
				t.Fatalf("plaintext %s under n = %s: error %v, want ErrPlaintext", bad, crt.N(), err)
			}
		}
	}
	if st := eng.Devices()[0].Stats(); st.KernelLaunches != 0 || st.BytesHostToDev != 0 {
		t.Fatalf("rejected batches reached the device: %d launches, %d bytes up", st.KernelLaunches, st.BytesHostToDev)
	}
}

// TestCheckedEncryptCatchesCorruption: with every element verified, a
// corrupted ciphertext never passes. A fault in one leg of the factorisation
// is the dangerous kind — the right residue mod q² recombined with a wrong one
// mod p² is a unit of Z*ₙ² like any other, it just decrypts to something else —
// and the check catches it because it goes over n² and knows no p or q; a
// poisoned item under the injector is caught the same way and healed by retry.
func TestCheckedEncryptCatchesCorruption(t *testing.T) {
	r := mpint.NewRNG(0xFE)
	crt, n2 := testCRT(t, r, 128)
	ms := randVec(r, 12, crt.N())
	want := textbookEncrypt(ms, crt.N(), 5)

	stated, err := newEncryptOp(make([]mpint.Nat, len(ms)), ms, encKey(crt, n2, true), 5)
	if err != nil {
		t.Fatal(err)
	}
	op := &stated
	if err := runOnHost(op); err != nil {
		t.Fatal(err)
	}
	sameVec(t, "encrypt_vec on the host", op.result(), want)
	mb := &member{rng: mpint.NewRNG(1)}
	if !mb.spotCheck(op, 1) {
		t.Fatal("a clean batch failed full verification")
	}
	q2 := mpint.Mul(crt.Q().N(), crt.Q().N())
	leg := mpint.Mod(mpint.Add(op.out[7], mpint.Mul(q2, mpint.FromUint64(3))), n2.N())
	if mpint.Cmp(mpint.Mod(leg, q2), mpint.Mod(op.out[7], q2)) != 0 || !mpint.GCD(leg, n2.N()).IsOne() {
		t.Fatal("the corrupted ciphertext should keep its residue mod q² and stay a unit")
	}
	op.out[7] = leg
	if mb.spotCheck(op, 1) {
		t.Fatal("a ciphertext with a wrong residue mod p² passed the n² check")
	}

	c := checkedEngine(t,
		gpu.FaultConfig{Seed: 11, CorruptProb: 0.5},
		CheckedConfig{MaxRetries: 12, VerifyFraction: 1})
	got, err := c.EncryptVec(ms, encKey(crt, n2, true), 5)
	if err != nil {
		t.Fatal(err)
	}
	sameVec(t, "encrypt_vec under corruption", got, want)
	st := c.Stats()
	if dev := gpu.Sum(c.Devices()); dev.FaultCorruptions == 0 || st.Retries == 0 {
		t.Fatalf("the injector corrupted no attempt at this seed: %+v, device %+v", st, dev)
	}
	if st.HostShards != 0 {
		t.Fatalf("the retry budget should have healed the op on the device: %+v", st)
	}
}

// TestCheckedEncryptFailover: a batch the device cannot serve comes from the
// host loop — the same lanes, the same nonces — bit-exact, under either handle.
func TestCheckedEncryptFailover(t *testing.T) {
	r := mpint.NewRNG(0xFF)
	crt, n2 := testCRT(t, r, 128)
	ms := randVec(r, 9, crt.N())
	for _, holder := range []bool{true, false} {
		c := checkedEngine(t, gpu.FaultConfig{Seed: 1, KillAtLaunch: 1}, CheckedConfig{MaxRetries: 1})
		got, err := c.EncryptVec(ms, encKey(crt, n2, holder), 8)
		if err != nil {
			t.Fatal(err)
		}
		sameVec(t, "encrypt_vec after failover", got, textbookEncrypt(ms, crt.N(), 8))
		if st := c.Stats(); st.HostShards != 1 {
			t.Fatalf("expected a host-served op, got %+v", st)
		}
	}
}

// TestEncryptVecsIsEncryptVecInOrder: EncryptVecs over batches of uneven
// widths — one of them empty — writes, batch after batch, the ciphertexts
// a batch of its own on its own seed encrypts to, under either handle, on the
// executor at D = 1 and 2 with and without verification and on one whose only
// device is dead, so the host loop serves every batch: deferred lanes packed
// across batches, run at once or on the host, every value is the textbook's. A plaintext not below n stops the
// batch at the batch that holds it, whose predecessors are still encrypted.
func TestEncryptVecsIsEncryptVecInOrder(t *testing.T) {
	r := mpint.NewRNG(41)
	crt, n2 := testCRT(t, r, 256)
	widths, seeds := []int{3, 0, 9, 1, 8}, []uint64{5, 6, 7, 8, 9}
	batches := make([][]mpint.Nat, len(widths))
	total := 0
	for j, w := range widths {
		for range w {
			batches[j] = append(batches[j], r.RandBelow(crt.N()))
		}
		total += w
	}
	engines := map[string]*CheckedEngine{"host": checkedEngine(t, gpu.FaultConfig{Seed: 1, KillAtLaunch: 1}, CheckedConfig{})}
	for _, d := range []int{1, 2} {
		for _, frac := range []float64{0, 1} {
			engines[fmt.Sprintf("executor D=%d verify=%v", d, frac)] = checkedSet(t, d, CheckedConfig{VerifyFraction: frac})
		}
	}
	for name, eng := range engines {
		for _, holder := range []bool{true, false} {
			key := encKey(crt, n2, holder)
			f := eng.Frame(total)
			dst := f.Vec(total)
			done, err := f.EncryptVecs(dst, batches, key, seeds)
			if err != nil || done != len(batches) {
				t.Fatalf("%s: %d batches, %v", name, done, err)
			}
			for j, b := range batches {
				for i, c := range textbookEncrypt(b, crt.N(), seeds[j]) {
					if mpint.Cmp(dst[i], c) != 0 {
						t.Fatalf("%s, holder %v: batch %d item %d is not the textbook's", name, holder, j, i)
					}
				}
				dst = dst[len(b):]
			}
			f.Release()
		}
		bad := [][]mpint.Nat{batches[0], {crt.N()}, batches[2]}
		f := eng.Frame(total)
		done, err := f.EncryptVecs(f.Vec(len(batches[0])+1+len(batches[2])), bad, encKey(crt, n2, true), seeds[:3])
		if done != 1 || !errors.Is(err, ErrPlaintext) {
			t.Fatalf("%s: a plaintext of n in batch 1: %d batches, %v", name, done, err)
		}
		f.Release()
	}
	if st := engines["host"].Stats(); st.HostShards == 0 {
		t.Fatalf("the dead device's batches were not served by the host loop: %+v", st)
	}
}
