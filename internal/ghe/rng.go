package ghe

import "flbooster/internal/mpint"

// Per-item stream derivation, shared by an op's lane (on a device or on the
// host) and its verifier: each item owns an RNG seeded from (seed, item
// index), so results are reproducible, order-independent across the worker
// pool, and bit-exact between the device and host paths.

// randCoprimeAt is item i of a RandCoprimeVec(m, seed) stream.
func randCoprimeAt(seed uint64, i int, m mpint.Nat) mpint.Nat {
	return mpint.NewRNG(seed ^ (uint64(i)+1)*0xD1B54A32D192ED03).RandCoprime(m)
}

// primeAt is item i of a GeneratePrime(bits, seed) stream put to the test: the
// item's generator draws an odd candidate of exactly bits bits and then the
// Miller–Rabin witnesses that try it. The candidate comes back if it is a
// probable prime, zero if it is composite.
func primeAt(seed uint64, i, bits int) mpint.Nat {
	rng := mpint.NewRNG(seed ^ (uint64(i)+1)*0xBF58476D1CE4E5B9)
	cand := rng.RandBits(bits)
	cand[0] |= 1
	if !mpint.IsPrime(cand, rng) {
		return mpint.Zero()
	}
	return cand
}
