package paillier

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// goldenKeys pins, against digests recorded at the parent of the windowed
// prime search (the serial walk, one Miller–Rabin exponentiation at a time),
// the primes GenerateKey draws for a seed and where it leaves the stream: the
// first 16 bytes of SHA-256(p ‖ q) and the generator's next draw after the key.
var goldenKeys = map[string]string{
	"1/128":  "3069b944d78d4ed8181c1a699db04af0 next 9850eafd1369c993",
	"1/256":  "1e7485694fed64d10e1235763629fe27 next 862f3242a0fc91da",
	"1/1024": "74b14f1a69e27a7a8c3839e8de3865dd next c34166084c255857",
	"1/2048": "e97d9d0c5563539baf9f48a4efb7b0d6 next a59dadd9a184db2a",
	"2/128":  "a150c69de100484631202e2f6935033e next 93fcd102ea1b5935",
	"2/256":  "d38860f6ea977a8ffa5770476ceff282 next 401a1b65dc4f60bb",
	"2/1024": "007fe05e00a01fe1c0558acc970848f7 next 3d82a21d9c68afa9",
	"2/2048": "654139a452d4c76507a876c8679cd9c2 next 4adc4bcb668c85e9",
	"7/128":  "0910e2aae5ad10139742d9c1f1640287 next 6caf5f4966073892",
	"7/256":  "57fb58767854257dcf8714fa22a8c3a4 next 38d7cbbe4bc4f1cf",
	"7/1024": "30a0a645d1364a6d509301d42bb6a3f0 next 95aff3d23c5f3b0c",
	"7/2048": "552d86aae53fc1b198dfdc1ad0dd3bd3 next 91a0eaed1ca66d64",
}

// keyDigest is a key's golden-table entry, read off the generator that drew it.
func keyDigest(sk *PrivateKey, rng *mpint.RNG) string {
	sum := sha256.Sum256(append(sk.P.Bytes(), sk.Q.Bytes()...))
	return fmt.Sprintf("%x next %016x", sum[:16], rng.Uint64())
}

// executorBackend is the GPU backend on the executor over one modelled RTX
// 3090 — the stack of every fl.Context's GPU profile.
func executorBackend(tb testing.TB) *GPUBackend {
	tb.Helper()
	return mustGPUBackend(executor(tb, gpu.RTX3090(), 1, ghe.CheckedConfig{}))
}

// TestGenerateKeyDigests: every seeded key — the key of every fl.Context — and
// the stream position after it are what the serial walk drew, whether the
// walk's rounds run on the host loop, a window a launch on the executor, or on
// the executor over no device, the CPU profiles' stack.
func TestGenerateKeyDigests(t *testing.T) {
	keygens := map[string]func(*mpint.RNG, int) (*PrivateKey, error){
		"host":      hostSearchKey,
		"executor":  executorBackend(t).GenerateKey,
		"no device": hostBackend(t).GenerateKey,
	}
	for _, seed := range []uint64{1, 2, 7} {
		for _, bits := range []int{128, 256, 1024, 2048} {
			key := fmt.Sprintf("%d/%d", seed, bits)
			for name, keygen := range keygens {
				rng := mpint.NewRNG(seed)
				sk, err := keygen(rng, bits)
				if err != nil {
					t.Fatal(err)
				}
				if got := keyDigest(sk, rng); got != goldenKeys[key] {
					t.Errorf("%s %s: key digest %s, parent recorded %s", name, key, got, goldenKeys[key])
				}
			}
		}
	}
}

// lByExp is L_s((n+1)^(s−1) mod s²) for n = s·t, by the exponentiation the
// closed form replaced.
func lByExp(s, t mpint.Nat) mpint.Nat {
	x := mpint.ModExp(mpint.AddWord(mpint.Mul(s, t), 1), mpint.SubWord(s, 1), mpint.Mul(s, s))
	return mpint.Div(mpint.SubWord(x, 1), s)
}

// TestReducedConstantsClosedForm: hp and hq from (s−1)·t mod s are the
// constants the exponentiation gave, on 240 generated keys of 32 to 126 bits;
// and on 240 decoded keys whose odd factors need not be prime, the closed form
// equals the exponentiation, its inverse exists exactly when the
// exponentiation's did, and a key whose constant has none — a third of them
// share the factor 3 — is rejected by the decoder.
func TestReducedConstantsClosedForm(t *testing.T) {
	r := mpint.NewRNG(29)
	for i := 0; i < 240; i++ {
		sk, err := hostSearchKey(r, 32+2*(i%48))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			s, t, h mpint.Nat
			m       *mpint.Mont
		}{{sk.P, sk.Q, sk.hp, sk.crt.P()}, {sk.Q, sk.P, sk.hq, sk.crt.Q()}} {
			want, ok := mpint.ModInverse(lByExp(c.s, c.t), c.s)
			if !ok || mpint.Cmp(c.m.ToMont(want), c.h) != 0 {
				t.Fatalf("key %d (%d bits): constant mod %s differs from the exponentiation's", i, sk.N.BitLen(), c.s)
			}
		}
	}
	rejected := 0
	for i := 0; i < 240; i++ {
		s, u := r.RandBits(12+i%40), r.RandBits(12+(i*7)%40)
		s[0], u[0] = s[0]|1, u[0]|1
		if i%3 == 0 {
			three := mpint.FromUint64(3)
			s, u = mpint.Mul(s, three), mpint.Mul(u, three)
		}
		closed, byExp := lFactor(s, u), lByExp(s, u)
		if mpint.Cmp(closed, byExp) != 0 {
			t.Fatalf("factors %s, %s: closed form %s, exponentiation %s", s, u, closed, byExp)
		}
		_, okClosed := mpint.ModInverse(closed, s)
		_, okExp := mpint.ModInverse(byExp, s)
		if okClosed != okExp {
			t.Fatalf("factors %s, %s: invertible %v by the closed form, %v by the exponentiation", s, u, okClosed, okExp)
		}
		fake := &PrivateKey{PublicKey: PublicKey{G: mpint.AddWord(mpint.Mul(s, u), 1)}, P: s, Q: u}
		enc, err := fake.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := UnmarshalPrivateKey(enc); !okExp && err == nil {
			t.Fatalf("factors %s, %s: no inverse, and the decoder accepted the key", s, u)
		}
		if !okExp {
			rejected++
		}
	}
	if rejected < 60 {
		t.Fatalf("only %d of 240 decoded keys lacked an inverse", rejected)
	}
}

// BenchmarkGenerateKey times a seeded key end to end — the walk, then the
// key's assembly — with the walk's rounds on the host loop and a window a
// launch on the executor (one modelled RTX 3090, the fl.Context stack), at
// the benchmark's key sizes, on its set-up clock's reference seeds (1 and 2)
// and four more: a key's time swings several-fold with how far its seed's
// walk goes, so a change to the rounds is read over six walks, not two.
func BenchmarkGenerateKey(b *testing.B) {
	keygens := []struct {
		name   string
		keygen func(*mpint.RNG, int) (*PrivateKey, error)
	}{{"host", hostSearchKey}, {"executor", executorBackend(b).GenerateKey}}
	for _, bits := range []int{1024, 2048} {
		for _, seed := range []uint64{1, 2, 3, 4, 5, 6} {
			for _, kg := range keygens {
				b.Run(fmt.Sprintf("%d/seed%d/%s", bits, seed, kg.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := kg.keygen(mpint.NewRNG(seed), bits); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
