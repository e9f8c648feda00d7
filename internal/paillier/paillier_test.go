package paillier

import (
	"testing"

	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// testKey generates a small key once per test binary; 256 bits keeps the
// suite fast while exercising multi-limb arithmetic end to end.
func testKey(t testing.TB) *PrivateKey {
	t.Helper()
	sk, err := CPUBackend{}.GenerateKey(mpint.NewRNG(1000), 256)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

func TestKeyGeneration(t *testing.T) {
	sk := testKey(t)
	if sk.KeyBits() != 256 {
		t.Fatalf("key size = %d, want 256", sk.KeyBits())
	}
	if mpint.Cmp(mpint.Mul(sk.P, sk.Q), sk.N) != 0 {
		t.Fatal("n != p*q")
	}
	want := mpint.LCM(mpint.SubWord(sk.P, 1), mpint.SubWord(sk.Q, 1))
	if mpint.Cmp(sk.Lambda, want) != 0 {
		t.Fatal("lambda != lcm(p-1, q-1)")
	}
	if sk.CiphertextBytes() < 2*256/8 {
		t.Fatalf("ciphertext bytes %d below 2k bits", sk.CiphertextBytes())
	}
}

func TestGenerateKeyRejectsTinySize(t *testing.T) {
	if _, err := (CPUBackend{}).GenerateKey(mpint.NewRNG(1), 8); err == nil {
		t.Fatal("8-bit key should be rejected")
	}
	// An odd size used to spin forever: two 16-bit primes never make 33 bits.
	if sk, err := (CPUBackend{}).GenerateKey(mpint.NewRNG(1), 33); err == nil || sk != nil {
		t.Fatalf("GenerateKey(33 bits) = %v, %v; want an error", sk, err)
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	sk := testKey(t)
	rng := mpint.NewRNG(2)
	for i := 0; i < 30; i++ {
		m := rng.RandBelow(sk.N)
		c, err := sk.Encrypt(m, rng)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		if mpint.Cmp(got, m) != 0 {
			t.Fatalf("round trip failed: got %s, want %s", got, m)
		}
	}
}

func TestEncryptRejectsOversizedPlaintext(t *testing.T) {
	sk := testKey(t)
	if _, err := sk.Encrypt(sk.N, mpint.NewRNG(3)); err == nil {
		t.Fatal("m = n should be rejected")
	}
}

func TestDecryptRejectsBadCiphertext(t *testing.T) {
	sk := testKey(t)
	if _, err := sk.Decrypt(Ciphertext{}); err == nil {
		t.Fatal("zero ciphertext should be rejected")
	}
	if _, err := sk.Decrypt(Ciphertext{C: sk.N2}); err == nil {
		t.Fatal("out-of-range ciphertext should be rejected")
	}
}

func TestHomomorphicAddition(t *testing.T) {
	sk := testKey(t)
	rng := mpint.NewRNG(4)
	for i := 0; i < 20; i++ {
		m1 := rng.RandBelow(sk.N)
		m2 := rng.RandBelow(sk.N)
		c1, _ := sk.Encrypt(m1, rng)
		c2, _ := sk.Encrypt(m2, rng)
		sum, err := sk.Decrypt(sk.Add(c1, c2))
		if err != nil {
			t.Fatal(err)
		}
		want := mpint.ModAdd(m1, m2, sk.N)
		if mpint.Cmp(sum, want) != 0 {
			t.Fatalf("E(m1)*E(m2) decrypts to %s, want %s", sum, want)
		}
	}
}

func TestMulPlain(t *testing.T) {
	sk := testKey(t)
	rng := mpint.NewRNG(5)
	m := rng.RandBelow(sk.N)
	k := rng.RandBelow(mpint.FromUint64(1 << 30))
	c, _ := sk.Encrypt(m, rng)

	prod, err := sk.Decrypt(sk.MulPlain(c, k))
	if err != nil {
		t.Fatal(err)
	}
	if mpint.Cmp(prod, mpint.ModMul(m, k, sk.N)) != 0 {
		t.Fatal("MulPlain wrong")
	}
}

func TestEncryptionIsProbabilistic(t *testing.T) {
	sk := testKey(t)
	rng := mpint.NewRNG(7)
	m := mpint.FromUint64(42)
	c1, _ := sk.Encrypt(m, rng)
	c2, _ := sk.Encrypt(m, rng)
	if mpint.Cmp(c1.C, c2.C) == 0 {
		t.Fatal("two encryptions of the same plaintext should differ")
	}
}

func TestNewKeyFromPrimesValidation(t *testing.T) {
	r := mpint.NewRNG(10)
	p := r.RandPrime(64)
	if _, err := NewKeyFromPrimes(p, p); err == nil {
		t.Fatal("p == q should be rejected")
	}
	q := r.RandPrime(64)
	sk, err := NewKeyFromPrimes(p, q)
	if err != nil {
		t.Fatal(err)
	}
	m := mpint.FromUint64(12345)
	c, _ := sk.Encrypt(m, r)
	got, _ := sk.Decrypt(c)
	if mpint.Cmp(got, m) != 0 {
		t.Fatal("from-primes key round trip failed")
	}
}

// backends is both backends by the name a report would give them.
func backends(t testing.TB) map[string]Backend {
	eng := ghe.MustEngine(gpu.MustNew(gpu.SmallTestDevice(), true))
	return map[string]Backend{"cpu-serial": CPUBackend{}, "gpu-he": MustGPUBackend(eng)}
}

func TestBackendsAgree(t *testing.T) {
	sk := testKey(t)
	rng := mpint.NewRNG(11)
	ms := make([]mpint.Nat, 12)
	ks := make([]mpint.Nat, 12)
	for i := range ms {
		ms[i] = rng.RandBelow(sk.N)
		ks[i] = rng.RandBelow(mpint.FromUint64(1 << 20))
	}
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			cs, err := b.EncryptVec(&sk.PublicKey, ms, 99)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := b.DecryptVec(sk, cs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ms {
				if mpint.Cmp(dec[i], ms[i]) != 0 {
					t.Fatalf("round trip failed at %d", i)
				}
			}
			sums, err := b.AddVec(&sk.PublicKey, cs, cs)
			if err != nil {
				t.Fatal(err)
			}
			dsums, err := b.DecryptVec(sk, sums)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ms {
				want := mpint.ModAdd(ms[i], ms[i], sk.N)
				if mpint.Cmp(dsums[i], want) != 0 {
					t.Fatalf("AddVec failed at %d", i)
				}
			}
			prods, err := b.MulPlainVec(&sk.PublicKey, cs, ks)
			if err != nil {
				t.Fatal(err)
			}
			dprods, err := b.DecryptVec(sk, prods)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ms {
				want := mpint.ModMul(ms[i], ks[i], sk.N)
				if mpint.Cmp(dprods[i], want) != 0 {
					t.Fatalf("MulPlainVec failed at %d", i)
				}
			}
		})
	}
}

func TestBackendErrorPaths(t *testing.T) {
	sk := testKey(t)
	for name, b := range backends(t) {
		if _, err := b.EncryptVec(&sk.PublicKey, []mpint.Nat{sk.N}, 1); err == nil {
			t.Errorf("%s: oversized plaintext should fail", name)
		}
		if _, err := b.DecryptVec(sk, []Ciphertext{{C: sk.N2}}); err == nil {
			t.Errorf("%s: out-of-range ciphertext should fail", name)
		}
		if _, err := b.AddVec(&sk.PublicKey, make([]Ciphertext, 2), make([]Ciphertext, 3)); err == nil {
			t.Errorf("%s: AddVec length mismatch should fail", name)
		}
		if _, err := b.MulPlainVec(&sk.PublicKey, make([]Ciphertext, 2), nil); err == nil {
			t.Errorf("%s: MulPlainVec length mismatch should fail", name)
		}
	}
}

func TestGPUKeyFromDevicePrimes(t *testing.T) {
	eng := ghe.MustEngine(gpu.MustNew(gpu.SmallTestDevice(), true))
	p, q, err := eng.PrimeSearch().Pair(mpint.NewRNG(123), 64)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := NewKeyFromPrimes(p, q)
	if err != nil {
		t.Fatal(err)
	}
	rng := mpint.NewRNG(12)
	m := mpint.FromUint64(777)
	c, err := sk.Encrypt(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(c)
	if err != nil {
		t.Fatal(err)
	}
	if mpint.Cmp(got, m) != 0 {
		t.Fatal("device-prime key round trip failed")
	}
}

func BenchmarkEncrypt256(b *testing.B) {
	sk := testKey(b)
	rng := mpint.NewRNG(20)
	m := rng.RandBelow(sk.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Encrypt(m, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt256(b *testing.B) {
	sk := testKey(b)
	rng := mpint.NewRNG(21)
	c, _ := sk.Encrypt(rng.RandBelow(sk.N), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Decrypt(c); err != nil {
			b.Fatal(err)
		}
	}
}
