package paillier

import (
	"sync"
	"testing"
	"testing/quick"

	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// keyCache holds one generated key per size so the 512/1024/2048 sweeps pay
// keygen once per test binary.
var keyCache sync.Map

func keyOfSize(t testing.TB, bits int) *PrivateKey {
	t.Helper()
	if sk, ok := keyCache.Load(bits); ok {
		return sk.(*PrivateKey)
	}
	sk, err := GenerateKey(mpint.NewRNG(uint64(bits)), bits)
	if err != nil {
		t.Fatal(err)
	}
	keyCache.Store(bits, sk)
	return sk
}

// vectorEngines builds the three substrates the bit-exactness criteria
// quantify over: raw device, checked device, pure host.
func vectorEngines(t testing.TB) map[string]ghe.VectorEngine {
	t.Helper()
	eng := ghe.MustEngine(gpu.MustNew(gpu.SmallTestDevice(), true))
	ceng := ghe.MustEngine(gpu.MustNew(gpu.SmallTestDevice(), true))
	checked, err := ghe.NewCheckedEngine(ceng, ghe.CheckedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]ghe.VectorEngine{
		"gpu":     eng,
		"checked": checked,
		"cpu":     ghe.NewCPUEngine(),
	}
}

// TestDecryptReducedMatchesClassic: the reduced-exponent CRT path and the
// full-λ textbook path must agree bit-for-bit on every valid ciphertext,
// across the paper's key sizes, and both must invert Encrypt.
func TestDecryptReducedMatchesClassic(t *testing.T) {
	for _, bits := range []int{512, 1024, 2048} {
		sk := keyOfSize(t, bits)
		rng := mpint.NewRNG(uint64(bits) + 1)
		for i := 0; i < 8; i++ {
			m := rng.RandBelow(sk.N)
			c, err := sk.Encrypt(m, rng)
			if err != nil {
				t.Fatal(err)
			}
			reduced, err := sk.Decrypt(c)
			if err != nil {
				t.Fatal(err)
			}
			classic, err := sk.DecryptClassic(c)
			if err != nil {
				t.Fatal(err)
			}
			if mpint.Cmp(reduced, classic) != 0 {
				t.Fatalf("%d bits: reduced CRT diverges from classic decrypt", bits)
			}
			if mpint.Cmp(reduced, m) != 0 {
				t.Fatalf("%d bits: decrypt did not invert encrypt", bits)
			}
		}
	}
}

// TestDecryptReducedClassicG: the hp/hq constants must also work for a
// random g ∈ Z*_{n²} (no n+1 shortcut anywhere in the derivation).
func TestDecryptReducedClassicG(t *testing.T) {
	sk, err := GenerateKeyClassic(mpint.NewRNG(31), 256)
	if err != nil {
		t.Fatal(err)
	}
	rng := mpint.NewRNG(32)
	for i := 0; i < 10; i++ {
		m := rng.RandBelow(sk.N)
		c, err := sk.Encrypt(m, rng)
		if err != nil {
			t.Fatal(err)
		}
		reduced, _ := sk.Decrypt(c)
		classic, _ := sk.DecryptClassic(c)
		if mpint.Cmp(reduced, classic) != 0 || mpint.Cmp(reduced, m) != 0 {
			t.Fatal("classic-g reduced decrypt diverges")
		}
	}
}

// TestPropertyDecryptReducedEquivalence quantifies reduced ≡ classic over
// random homomorphic combinations, not just fresh encryptions.
func TestPropertyDecryptReducedEquivalence(t *testing.T) {
	sk := testKey(t)
	rng := mpint.NewRNG(33)
	f := func(a, b uint64, k uint16) bool {
		ca, err := sk.Encrypt(mpint.FromUint64(a), rng)
		if err != nil {
			return false
		}
		cb, err := sk.Encrypt(mpint.FromUint64(b), rng)
		if err != nil {
			return false
		}
		c := sk.MulPlain(sk.Add(ca, cb), mpint.FromUint64(uint64(k)+1))
		reduced, err := sk.Decrypt(c)
		if err != nil {
			return false
		}
		classic, err := sk.DecryptClassic(c)
		if err != nil {
			return false
		}
		return mpint.Cmp(reduced, classic) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDecryptVecReducedAcrossEngines: the backend's two half-modulus
// kernels must agree with the host path on every engine substrate.
func TestDecryptVecReducedAcrossEngines(t *testing.T) {
	sk := keyOfSize(t, 512)
	rng := mpint.NewRNG(34)
	ms := plaintexts(10, sk.N)
	for name, eng := range vectorEngines(t) {
		t.Run(name, func(t *testing.T) {
			b := MustGPUBackend(eng)
			cs, err := b.EncryptVec(&sk.PublicKey, ms, rng.Uint64())
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.DecryptVec(sk, cs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ms {
				want, err := sk.DecryptClassic(cs[i])
				if err != nil {
					t.Fatal(err)
				}
				if mpint.Cmp(got[i], want) != 0 || mpint.Cmp(got[i], ms[i]) != 0 {
					t.Fatalf("element %d: vector decrypt diverges", i)
				}
			}
		})
	}
}

// TestDecryptVecReducedCheaperSim pins the cost-model direction: two
// half-size-modulus kernels with half-length exponents must charge less
// simulated compute than the one full-λ kernel over n² they replace.
func TestDecryptVecReducedCheaperSim(t *testing.T) {
	sk := keyOfSize(t, 512)
	ms := plaintexts(16, sk.N)
	reduced := ghe.MustEngine(gpu.MustNew(gpu.SmallTestDevice(), true))
	b := MustGPUBackend(reduced)
	cs, err := b.EncryptVec(&sk.PublicKey, ms, 77)
	if err != nil {
		t.Fatal(err)
	}
	encryptCompute := reduced.Device().Stats().SimComputeTime
	if _, err := b.DecryptVec(sk, cs); err != nil {
		t.Fatal(err)
	}
	reducedCompute := reduced.Device().Stats().SimComputeTime - encryptCompute

	classic := ghe.MustEngine(gpu.MustNew(gpu.SmallTestDevice(), true))
	bases := make([]mpint.Nat, len(cs))
	for i := range cs {
		bases[i] = cs[i].C
	}
	if _, err := classic.ModExpVec(bases, sk.Lambda, sk.MontN2()); err != nil {
		t.Fatal(err)
	}
	classicCompute := classic.Device().Stats().SimComputeTime
	if reducedCompute >= classicCompute {
		t.Errorf("reduced CRT sim compute %v should undercut full-λ %v", reducedCompute, classicCompute)
	}
}

// TestPooledEncryptBitExact: with a prefilled pool, EncryptVec must return
// exactly the ciphertexts of the unpooled path and of per-element
// EncryptWithNonce over the engine's nonce stream — on all three engines.
func TestPooledEncryptBitExact(t *testing.T) {
	sk := keyOfSize(t, 512)
	ms := plaintexts(12, sk.N)
	const seed = 4242
	for name, eng := range vectorEngines(t) {
		t.Run(name, func(t *testing.T) {
			se := eng.(ghe.StreamEngine)
			plain := MustGPUBackend(eng)
			want, err := plain.EncryptVec(&sk.PublicKey, ms, seed)
			if err != nil {
				t.Fatal(err)
			}
			// Cross-check against the scalar API on the same stream.
			rs, err := se.RandCoprimeRange(0, len(ms), sk.N, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ms {
				c, err := sk.EncryptWithNonce(ms[i], rs[i])
				if err != nil {
					t.Fatal(err)
				}
				if mpint.Cmp(c.C, want[i].C) != 0 {
					t.Fatalf("element %d: EncryptVec diverges from EncryptWithNonce", i)
				}
			}
			for _, h := range handles(sk) {
				unpooled, err := plain.EncryptVec(h.pk, ms, seed)
				if err != nil {
					t.Fatal(err)
				}
				sameCiphertexts(t, name+" "+h.name, unpooled, want)
				pool, err := NewNoncePool(h.pk, se, seed)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := pool.Prefill(len(ms)); err != nil {
					t.Fatal(err)
				}
				pooled := MustGPUBackend(eng)
				pooled.Pool = pool
				got, err := pooled.EncryptVec(h.pk, ms, seed)
				if err != nil {
					t.Fatal(err)
				}
				sameCiphertexts(t, name+" "+h.name+" pooled", got, want)
				st := pool.Stats()
				if st.Hits != int64(len(ms)) || st.Misses != 0 {
					t.Errorf("pool stats after full hit: %+v", st)
				}
			}
		})
	}
}

// TestPooledEncryptPartialServe: a pool holding fewer terms than the batch
// serves what it has; the inline remainder continues the same stream, so the
// result stays bit-exact and the stats split hits/misses.
func TestPooledEncryptPartialServe(t *testing.T) {
	sk := keyOfSize(t, 512)
	ms := plaintexts(12, sk.N)
	const seed = 515
	eng := ghe.MustEngine(gpu.MustNew(gpu.SmallTestDevice(), true))
	want, err := MustGPUBackend(eng).EncryptVec(&sk.PublicKey, ms, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range handles(sk) {
		// The pool refills as anybody would; the batch's inline remainder is
		// computed under the caller's handle. Either mix is the same stream.
		pool, err := NewNoncePool(&sk.PublicKey, eng, seed)
		if err != nil {
			t.Fatal(err)
		}
		pool.Chunk = 4
		if _, err := pool.Prefill(5); err != nil {
			t.Fatal(err)
		}
		b := MustGPUBackend(eng)
		b.Pool = pool
		got, err := b.EncryptVec(h.pk, ms, seed)
		if err != nil {
			t.Fatal(err)
		}
		sameCiphertexts(t, h.name+" partial serve", got, want)
		st := pool.Stats()
		if st.Hits != 5 || st.Misses != 7 {
			t.Errorf("hits/misses = %d/%d, want 5/7", st.Hits, st.Misses)
		}
		// A second batch under the same seed restarts at stream position 0,
		// which the drained pool cannot serve — full miss, still bit-exact.
		again, err := b.EncryptVec(h.pk, ms, seed)
		if err != nil {
			t.Fatal(err)
		}
		sameCiphertexts(t, h.name+" drained pool", again, want)
		if st := pool.Stats(); st.Misses != 7+int64(len(ms)) {
			t.Errorf("drained pool misses = %d, want %d", st.Misses, 7+len(ms))
		}
	}
}

// TestPooledSessionBitExact: chunked encryption popping from the pool must
// concatenate to the whole-batch unpooled result.
func TestPooledSessionBitExact(t *testing.T) {
	sk := keyOfSize(t, 512)
	ms := plaintexts(10, sk.N)
	const seed = 616
	eng := ghe.MustEngine(gpu.MustNew(gpu.SmallTestDevice(), true))
	want, err := MustGPUBackend(eng).EncryptVec(&sk.PublicKey, ms, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range handles(sk) {
		pool, err := NewNoncePool(h.pk, eng, seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pool.Prefill(len(ms)); err != nil {
			t.Fatal(err)
		}
		b := MustGPUBackend(eng)
		b.Pool = pool
		got, _ := streamEncrypt(t, b, h.pk, ms, seed, 3)
		sameCiphertexts(t, h.name+" pooled session", got, want)
		if st := pool.Stats(); st.Hits != int64(len(ms)) {
			t.Errorf("session hits = %d, want %d", st.Hits, len(ms))
		}
	}
}

// TestPoolFaultRetryKeepsIndicesAligned: refilling through a faulty checked
// engine retries mid-stream, but the global-index nonce stream makes the
// retried chunk land on the same positions — pooled ciphertexts stay
// bit-exact with a clean engine's unpooled ones.
func TestPoolFaultRetryKeepsIndicesAligned(t *testing.T) {
	sk := keyOfSize(t, 512)
	ms := plaintexts(12, sk.N)
	const seed = 717
	clean := ghe.MustEngine(gpu.MustNew(gpu.SmallTestDevice(), true))
	want, err := MustGPUBackend(clean).EncryptVec(&sk.PublicKey, ms, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range handles(sk) {
		dev := gpu.MustNew(gpu.SmallTestDevice(), true)
		dev.SetFaultInjector(gpu.NewFaultInjector(gpu.FaultConfig{Seed: 9, AbortProb: 0.3}))
		dev.SetHealthPolicy(gpu.HealthPolicy{DegradeAfter: 1 << 30, FailAfter: 1 << 30})
		checked, err := ghe.NewCheckedEngine(ghe.MustEngine(dev), ghe.CheckedConfig{MaxRetries: 20})
		if err != nil {
			t.Fatal(err)
		}
		pool, err := NewNoncePool(h.pk, checked, seed)
		if err != nil {
			t.Fatal(err)
		}
		pool.Chunk = 3
		if _, err := pool.Prefill(len(ms)); err != nil {
			t.Fatal(err)
		}
		b := MustGPUBackend(checked)
		b.Pool = pool
		got, err := b.EncryptVec(h.pk, ms, seed)
		if err != nil {
			t.Fatal(err)
		}
		sameCiphertexts(t, h.name+" faulty refill", got, want)
		if checked.Stats().Retries == 0 {
			t.Skip("injector never fired during refill at this seed")
		}
	}
}

// TestPoolPrefillChargesPrecompute: refill work must move off the online
// SimTime() clock into SimPrecomputeTime, and a subsequent pooled encrypt
// must charge less online compute than an unpooled one.
func TestPoolPrefillChargesPrecompute(t *testing.T) {
	sk := keyOfSize(t, 512)
	ms := plaintexts(16, sk.N)
	const seed = 818

	eng := ghe.MustEngine(gpu.MustNew(gpu.SmallTestDevice(), true))
	pool, err := NewNoncePool(&sk.PublicKey, eng, seed)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := pool.Prefill(len(ms))
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Device().Stats()
	if moved <= 0 || st.SimPrecomputeTime != moved {
		t.Fatalf("prefill moved %v, device precompute %v", moved, st.SimPrecomputeTime)
	}
	if st.SimTime() != 0 {
		t.Fatalf("prefill left %v on the online clock", st.SimTime())
	}
	b := MustGPUBackend(eng)
	b.Pool = pool
	if _, err := b.EncryptVec(&sk.PublicKey, ms, seed); err != nil {
		t.Fatal(err)
	}
	pooledOnline := eng.Device().Stats().SimTime()

	ref := ghe.MustEngine(gpu.MustNew(gpu.SmallTestDevice(), true))
	if _, err := MustGPUBackend(ref).EncryptVec(&sk.PublicKey, ms, seed); err != nil {
		t.Fatal(err)
	}
	unpooledOnline := ref.Device().Stats().SimTime()
	if pooledOnline >= unpooledOnline {
		t.Errorf("pooled online %v should undercut unpooled %v", pooledOnline, unpooledOnline)
	}
}

// TestRerandomizeVecPreservesPlaintexts across both backends; the GPU
// backend draws its noise from the pool.
func TestRerandomizeVecPreservesPlaintexts(t *testing.T) {
	sk := keyOfSize(t, 512)
	ms := plaintexts(8, sk.N)
	eng := ghe.MustEngine(gpu.MustNew(gpu.SmallTestDevice(), true))
	pool, err := NewNoncePool(&sk.PublicKey, eng, 99)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Prefill(len(ms)); err != nil {
		t.Fatal(err)
	}
	gb := MustGPUBackend(eng)
	gb.Pool = pool
	for _, b := range []Backend{CPUBackend{}, gb} {
		cs, err := b.EncryptVec(&sk.PublicKey, ms, 98)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := b.RerandomizeVec(&sk.PublicKey, cs, 99)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ms {
			if mpint.Cmp(rr[i].C, cs[i].C) == 0 {
				t.Fatalf("%s: ciphertext %d unchanged by rerandomize", b.Name(), i)
			}
			got, err := sk.Decrypt(rr[i])
			if err != nil {
				t.Fatal(err)
			}
			if mpint.Cmp(got, ms[i]) != 0 {
				t.Fatalf("%s: rerandomize changed plaintext %d", b.Name(), i)
			}
		}
	}
	if st := pool.Stats(); st.Hits != int64(len(ms)) {
		t.Errorf("rerandomize pool hits = %d, want %d", st.Hits, len(ms))
	}
}

// TestPoolReseed: retargeting the pool at a new seed discards the old
// stream and serves the new one.
func TestPoolReseed(t *testing.T) {
	sk := keyOfSize(t, 512)
	ms := plaintexts(6, sk.N)
	eng := ghe.MustEngine(gpu.MustNew(gpu.SmallTestDevice(), true))
	pool, err := NewNoncePool(&sk.PublicKey, eng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Prefill(6); err != nil {
		t.Fatal(err)
	}
	pool.Reseed(2)
	if pool.Ready() != 0 || pool.Seed() != 2 {
		t.Fatalf("reseed left ready=%d seed=%d", pool.Ready(), pool.Seed())
	}
	if _, err := pool.Prefill(6); err != nil {
		t.Fatal(err)
	}
	want, err := MustGPUBackend(eng).EncryptVec(&sk.PublicKey, ms, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := MustGPUBackend(eng)
	b.Pool = pool
	got, err := b.EncryptVec(&sk.PublicKey, ms, 2)
	if err != nil {
		t.Fatal(err)
	}
	sameCiphertexts(t, "reseeded", got, want)
	if st := pool.Stats(); st.Hits != int64(len(ms)) {
		t.Errorf("reseeded pool hits = %d, want %d", st.Hits, len(ms))
	}
}

// TestNoncePoolValidation covers the constructor error paths.
func TestNoncePoolValidation(t *testing.T) {
	sk := keyOfSize(t, 512)
	if _, err := NewNoncePool(nil, ghe.NewCPUEngine(), 1); err == nil {
		t.Error("nil key accepted")
	}
	if _, err := NewNoncePool(&sk.PublicKey, nil, 1); err == nil {
		t.Error("nil engine accepted")
	}
}

func BenchmarkDecryptClassic1024(b *testing.B) { benchDecrypt(b, 1024, true) }
func BenchmarkDecryptReduced1024(b *testing.B) { benchDecrypt(b, 1024, false) }
func BenchmarkDecryptClassic2048(b *testing.B) { benchDecrypt(b, 2048, true) }
func BenchmarkDecryptReduced2048(b *testing.B) { benchDecrypt(b, 2048, false) }

func benchDecrypt(b *testing.B, bits int, classic bool) {
	sk := keyOfSize(b, bits)
	rng := mpint.NewRNG(7)
	c, err := sk.Encrypt(rng.RandBelow(sk.N), rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if classic {
			_, err = sk.DecryptClassic(c)
		} else {
			_, err = sk.Decrypt(c)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
