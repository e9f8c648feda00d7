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

// RandCoprimeAt is the nonce item i of a batch on the stream of seed is
// encrypted under (Frame.EncryptVecs): the first RandCoprime(n) of the item's
// own generator — uniform in [1, n) by rejection, coprime with n. It is the definition of the stream, a pure
// function of its arguments; the kernel's lanes and the verifier both draw
// from it, on no shared state.
func RandCoprimeAt(seed uint64, i int, n mpint.Nat) mpint.Nat {
	return nonceRNG(seed, i).RandCoprime(n)
}
