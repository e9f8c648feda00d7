package mpint

// smallPrimes covers trial division before the Miller–Rabin rounds; the
// product-of-residues trick is unnecessary at the key sizes we target.
var smallPrimes = []Word{
	2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
	71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
	151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
	233, 239, 241, 251,
}

// millerRabinRounds gives a 2⁻⁸⁰-ish error bound for random candidates at
// the sizes used here; key generation additionally benefits from the
// structure of random search.
const millerRabinRounds = 20

// IsPrime reports whether n is (probably) prime, using trial division by
// small primes followed by Miller–Rabin with rounds random bases drawn from
// rng. This is the generator the paper runs per GPU thread during key
// generation.
func IsPrime(n Nat, rng *RNG) bool {
	n = trim(n)
	if len(n) == 0 {
		return false
	}
	if v, ok := n.Uint64(); ok && v < 4 {
		return v == 2 || v == 3
	}
	if n.IsEven() {
		return false
	}
	for _, p := range smallPrimes[1:] {
		if modWord(n, p) == 0 {
			return len(n) == 1 && n[0] == p
		}
	}
	// Write n-1 = d·2^s with d odd.
	nm1 := SubWord(n, 1)
	s := nm1.TrailingZeroBits()
	d := Rsh(nm1, s)
	nm3 := SubWord(n, 3)
	mont := NewMont(n)
	// The witness loop compares in Montgomery form: 1 ↦ R mod n and
	// n−1 ↦ n − (R mod n), so the squaring chain never leaves it.
	one, minusOne := mont.one, Sub(n, mont.one)
	sched := CompileExpAuto(d)
	sc := mont.getScratch()
	defer mont.putScratch(sc)
	for round := 0; round < millerRabinRounds; round++ {
		// Uniform base in [2, n-2].
		a := AddWord(rng.RandBelow(nm3), 2)
		x := mont.expMont(a, sched, sc) // a^d in Montgomery form, k limbs
		if Cmp(x, one) == 0 || Cmp(x, minusOne) == 0 {
			continue
		}
		composite := true
		for i := uint(1); i < s; i++ {
			mont.mulInto(x, x, x, sc)
			if Cmp(x, minusOne) == 0 {
				composite = false
				break
			}
			if Cmp(x, one) == 0 {
				return false
			}
		}
		if composite {
			return false
		}
	}
	return true
}

// RandPrime returns a random prime with exactly bits significant bits.
// The low bit is forced to 1 and candidates advance by 2 until a probable
// prime is found, mirroring the per-thread search the paper describes.
func (r *RNG) RandPrime(bits int) Nat {
	if bits < 4 {
		panic("mpint: RandPrime width too small")
	}
	for {
		cand := r.RandBits(bits)
		cand[0] |= 1
		// Walk odd candidates; restart with fresh randomness if the walk
		// drifts past the requested bit length.
		for attempt := 0; attempt < 512; attempt++ {
			if cand.BitLen() != bits {
				break
			}
			if IsPrime(cand, r) {
				return cand
			}
			cand = AddWord(cand, 2)
		}
	}
}

// RandSafePrimePair returns distinct primes p, q of the given bit width with
// p ≠ q, suitable for Paillier/RSA modulus construction. ("Safe" here means
// safe for the cryptosystems' requirements — distinct, full-width — not
// Sophie-Germain safe primes, which key sizes in the benchmarks don't need.)
func (r *RNG) RandSafePrimePair(bits int) (p, q Nat) {
	p = r.RandPrime(bits)
	for {
		q = r.RandPrime(bits)
		if Cmp(p, q) != 0 {
			return p, q
		}
	}
}
