package ghe

import (
	"fmt"
	"sync/atomic"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// Per-item stream derivation, shared by the nonce op's lane (on a device or
// on the host) and its verifier: each item owns an RNG seeded from (seed,
// item index), so results are reproducible, order-independent across the
// worker pool, and bit-exact between the device and host paths.

// randBitsAt is item i of a RandVec(bits, seed) stream.
func randBitsAt(seed uint64, i, bits int) mpint.Nat {
	return mpint.NewRNG(seed ^ (uint64(i)+1)*0x9E3779B97F4A7C15).RandBits(bits)
}

// randCoprimeAt is item i of a RandCoprimeVec(m, seed) stream.
func randCoprimeAt(seed uint64, i int, m mpint.Nat) mpint.Nat {
	return mpint.NewRNG(seed ^ (uint64(i)+1)*0xD1B54A32D192ED03).RandCoprime(m)
}

// RandVec generates n random values with exactly `bits` significant bits on
// the device, one per-thread generator per item as the paper assigns a
// generator to each thread in a warp.
func (e *Engine) RandVec(n, bits int, seed uint64) ([]mpint.Nat, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("ghe: RandVec needs positive bit width, got %d", bits)
	}
	out := make([]mpint.Nat, n)
	kern := gpu.Kernel{
		Name:          "rand_vec",
		Items:         n,
		RegsPerThread: 16,
		WordOps:       int64((bits + 31) / 32),
		Poison:        outVec{out}.poison,
	}
	if _, err := e.dev.Launch(kern, func(i int) {
		out[i] = randBitsAt(seed, i, bits)
	}); err != nil {
		return nil, fmt.Errorf("ghe: RandVec: %w", err)
	}
	e.dev.CopyFromDevice(natBytes(n, (bits+31)/32))
	return out, nil
}

// GeneratePrime searches for a `bits`-wide probable prime using one
// Miller–Rabin searcher per device thread; the first thread to find a prime
// wins. This is the key-generation path of §IV-A3.
func (e *Engine) GeneratePrime(bits int, seed uint64) (mpint.Nat, error) {
	if bits < 4 {
		return nil, fmt.Errorf("ghe: GeneratePrime width %d too small", bits)
	}
	searchers := e.dev.Config().SMs * 2
	var found atomic.Pointer[mpint.Nat]
	kern := gpu.Kernel{
		Name:          "gen_prime",
		Items:         searchers,
		RegsPerThread: regsForLimbs((bits + 31) / 32),
		// Expected candidates tested ≈ bits·ln2/searchers, each a modexp.
		WordOps:        modExpWordOps((bits+31)/32, bits),
		DivergentLanes: e.dev.Config().WarpSize - 1, // primality exits diverge
	}
	if _, err := e.dev.Launch(kern, func(i int) {
		rng := mpint.NewRNG(seed ^ (uint64(i)+1)*0xBF58476D1CE4E5B9)
		for attempt := 0; attempt < 1<<20; attempt++ {
			if found.Load() != nil {
				return
			}
			cand := rng.RandBits(bits)
			cand[0] |= 1
			if mpint.IsPrime(cand, rng) {
				found.CompareAndSwap(nil, &cand)
				return
			}
		}
	}); err != nil {
		return nil, fmt.Errorf("ghe: GeneratePrime: %w", err)
	}
	p := found.Load()
	if p == nil {
		return nil, fmt.Errorf("ghe: GeneratePrime found no prime (width %d)", bits)
	}
	e.dev.CopyFromDevice(natBytes(1, (bits+31)/32))
	return *p, nil
}

// GeneratePrimePair returns two distinct device-generated primes.
func (e *Engine) GeneratePrimePair(bits int, seed uint64) (p, q mpint.Nat, err error) {
	p, err = e.GeneratePrime(bits, seed)
	if err != nil {
		return nil, nil, err
	}
	for i := uint64(1); ; i++ {
		q, err = e.GeneratePrime(bits, seed+i*0x94D049BB133111EB)
		if err != nil {
			return nil, nil, err
		}
		if mpint.Cmp(p, q) != 0 {
			return p, q, nil
		}
	}
}
