package ghe

import "flbooster/internal/mpint"

// Per-item stream derivation, shared by an op's lane (on a device or on the
// host) and its verifier: each item owns an RNG seeded from (seed, item
// index), so results are reproducible, order-independent across the worker
// pool, and bit-exact between the device and host paths.

// nonceRNG is the generator of item i of the (seed) nonce stream, before its
// first draw.
func nonceRNG(seed uint64, i int) *mpint.RNG {
	return mpint.NewRNG(seed ^ (uint64(i)+1)*0xD1B54A32D192ED03)
}

// RandCoprimeAt is the nonce EncryptVec(…, seed) encrypts item i under: the
// first RandCoprime(n) of the item's own generator — uniform in [1, n) by
// rejection, coprime with n. It is the definition of the stream, a pure
// function of its arguments; the kernel's lanes and the verifier both draw
// from it, on no shared state.
func RandCoprimeAt(seed uint64, i int, n mpint.Nat) mpint.Nat {
	return nonceRNG(seed, i).RandCoprime(n)
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
