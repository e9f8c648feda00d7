package paillier

import (
	"testing"

	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// executor builds the GPU-HE executor over d fresh devices of one
// configuration.
func executor(t testing.TB, dev gpu.Config, d int, check ghe.CheckedConfig) *ghe.CheckedEngine {
	t.Helper()
	set, err := gpu.NewDeviceSet(dev, true, d)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ghe.NewCheckedEngine(set, check)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// hostExecutor is the executor over one device that dies at its first launch:
// the host loop serves every op.
func hostExecutor(t testing.TB, dev gpu.Config) *ghe.CheckedEngine {
	t.Helper()
	eng := executor(t, dev, 1, ghe.CheckedConfig{})
	eng.Set().Device(0).SetFaultInjector(gpu.NewFaultInjector(gpu.FaultConfig{Seed: 1, KillAtLaunch: 1}))
	return eng
}

// shardedBackend builds a GPUBackend over the executor of a D-device set, a
// tenth of every shard verified.
func shardedBackend(t testing.TB, d int) (*GPUBackend, *ghe.CheckedEngine) {
	t.Helper()
	eng := executor(t, gpu.SmallTestDevice(), d, ghe.CheckedConfig{VerifyFraction: 0.1, VerifySeed: 5})
	return mustGPUBackend(eng), eng
}

// singleBackend is the sequential reference: the executor over one device,
// no sharding, no verification.
func singleBackend(t testing.TB) *GPUBackend {
	t.Helper()
	return mustGPUBackend(executor(t, gpu.SmallTestDevice(), 1, ghe.CheckedConfig{}))
}

func sameCts(t *testing.T, tag string, got, want []Ciphertext) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if mpint.Cmp(got[i].C, want[i].C) != 0 {
			t.Fatalf("%s: ciphertext %d differs", tag, i)
		}
	}
}

// TestShardedBackendBitExact: the full Paillier vector API through a device
// set matches the single-device backend bit-for-bit across D ∈ {1,2,4,8}.
func TestShardedBackendBitExact(t *testing.T) {
	sk := testKey(t)
	pk := &sk.PublicKey
	rng := mpint.NewRNG(21)
	const n = 19
	ms := make([]mpint.Nat, n)
	for i := range ms {
		ms[i] = rng.RandBelow(pk.N)
	}
	ref := singleBackend(t)
	wantCts, err := ref.EncryptVec(pk, ms, 42)
	if err != nil {
		t.Fatal(err)
	}
	wantSum, err := ref.AddVec(pk, wantCts, wantCts)
	if err != nil {
		t.Fatal(err)
	}

	for _, d := range []int{1, 2, 4, 8} {
		b, _ := shardedBackend(t, d)
		own, err := b.EncryptVec(sk.Holder(), ms, 42)
		if err != nil {
			t.Fatalf("D=%d holder EncryptVec: %v", d, err)
		}
		sameCts(t, "holder encrypt", own, wantCts)
		cts, err := b.EncryptVec(pk, ms, 42)
		if err != nil {
			t.Fatalf("D=%d EncryptVec: %v", d, err)
		}
		sameCts(t, "encrypt", cts, wantCts)
		sum, err := b.AddVec(pk, cts, cts)
		if err != nil {
			t.Fatalf("D=%d AddVec: %v", d, err)
		}
		sameCts(t, "add", sum, wantSum)
		dec, err := b.DecryptVec(sk, sum)
		if err != nil {
			t.Fatalf("D=%d DecryptVec: %v", d, err)
		}
		for i := range dec {
			want := mpint.Mod(mpint.Add(ms[i], ms[i]), pk.N)
			if mpint.Cmp(dec[i], want) != 0 {
				t.Fatalf("D=%d decrypt[%d] mismatch", d, i)
			}
		}
	}
}

// TestShardedBackendMidBatchKill: killing one of four devices mid-encrypt
// leaves the ciphertexts bit-exact with the healthy reference.
func TestShardedBackendMidBatchKill(t *testing.T) {
	sk := testKey(t)
	pk := &sk.PublicKey
	rng := mpint.NewRNG(24)
	const n = 16
	ms := make([]mpint.Nat, n)
	for i := range ms {
		ms[i] = rng.RandBelow(pk.N)
	}
	ref := singleBackend(t)
	want, err := ref.EncryptVec(pk, ms, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range handles(sk) {
		b, eng := shardedBackend(t, 4)
		// The kill lands mid-batch: encryption is one launch a device, so device
		// 1's share of the batch dies at its first launch (its third, when a
		// batch was three) while its peers' shares land, and they steal it.
		eng.Set().Device(1).SetFaultInjector(gpu.NewFaultInjector(gpu.FaultConfig{Seed: 2, KillAtLaunch: 1}))
		got, err := b.EncryptVec(h.pk, ms, 13)
		if err != nil {
			t.Fatalf("%s EncryptVec under mid-batch kill: %v", h.name, err)
		}
		sameCts(t, h.name+" encrypt under kill", got, want)
		if eng.Set().Stats().Steals == 0 {
			t.Fatalf("%s: the kill stole no shard", h.name)
		}
		dec, err := b.DecryptVec(sk, got)
		if err != nil {
			t.Fatal(err)
		}
		for i := range dec {
			if mpint.Cmp(dec[i], ms[i]) != 0 {
				t.Fatalf("decrypt[%d] mismatch after kill", i)
			}
		}
	}
}
