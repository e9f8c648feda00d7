package mpint

// RNG produces random multi-precision integers. It is the host-side analogue
// of the per-thread generators the paper assigns to each warp: a small-state
// xoshiro256** generator seeded via splitmix64, deterministic for
// reproducible experiments.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a deterministic generator seeded from the given value.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 stream expands the seed into the 256-bit xoshiro state.
	for i := range r.s {
		seed += 0x9E3779B97F4A7C15
		z := seed
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	res := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return res
}

// Word returns a random limb: two successive draws, 32 bits each, low half
// first. Seeded streams were defined when a limb was one 32-bit draw, and
// every key, nonce and ciphertext in the repo hangs off them, so the stream
// keeps spending one draw per 32 bits whatever the host limb width.
func (r *RNG) Word() Word {
	lo := uint32(r.Uint64())
	return Word(lo) | Word(uint32(r.Uint64()))<<32
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (polar Box–Muller,
// discarding the second value for simplicity).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * sqrtNewton(-2*Ln(s)/s)
		}
	}
}

// sqrtNewton computes √x by Newton iteration (kept dependency-free so the
// package avoids even math; accuracy ~1e-15 after the loop converges).
func sqrtNewton(x float64) float64 {
	if x <= 0 {
		return 0
	}
	g := x
	for i := 0; i < 64; i++ {
		ng := 0.5 * (g + x/g)
		if ng == g {
			break
		}
		g = ng
	}
	return g
}

// maxFloat64 is the largest finite float64, math.MaxFloat64.
const maxFloat64 = 0x1p1023 * (1 + (1 - 0x1p-52))

// Ln computes ln(x) for x > 0 via the atanh series after range reduction by
// halving or doubling toward 1 — the one natural log of the repository
// (datasets.Log, the models' losses and Adam's square root, NormFloat64), free
// of math so that no result depends on which FMA body the CPU selects. It
// panics when x ≤ 0 and returns +Inf at +Inf, which halving never brings
// toward 1.
func Ln(x float64) float64 {
	if x <= 0 {
		panic("mpint: Ln domain")
	}
	if x > maxFloat64 {
		return x
	}
	var shift float64
	const ln2 = 0.6931471805599453
	for x < 0.5 {
		x *= 2
		shift -= ln2
	}
	for x > 1.5 {
		x /= 2
		shift += ln2
	}
	// ln(x) = 2·atanh((x−1)/(x+1))
	t := (x - 1) / (x + 1)
	t2 := t * t
	term := t
	sum := 0.0
	for k := 1; k < 60; k += 2 {
		sum += term / float64(k)
		term *= t2
		if term < 1e-18 && term > -1e-18 {
			break
		}
	}
	return 2*sum + shift
}

// Intn returns a uniform integer in [0, n). Panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mpint: Intn non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// fillBits overwrites z (⌈bits/64⌉ limbs) with ⌈bits/32⌉ successive 32-bit
// draws, low word first, and clears everything above bit `bits`.
func (r *RNG) fillBits(z Nat, bits int) {
	words32 := (bits + 31) / 32
	for i := 0; i < words32/2; i++ {
		z[i] = r.Word()
	}
	if words32%2 == 1 {
		z[words32/2] = Word(uint32(r.Uint64()))
	}
	if top := uint(bits % WordBits); top != 0 {
		z[len(z)-1] &= 1<<top - 1
	}
}

// RandBits returns a uniform Nat with exactly `bits` significant bits
// (the top bit is forced to 1). bits must be positive.
func (r *RNG) RandBits(bits int) Nat {
	if bits <= 0 {
		panic("mpint: RandBits non-positive width")
	}
	z := make(Nat, (bits+WordBits-1)/WordBits)
	r.fillBits(z, bits)
	z[len(z)-1] |= 1 << uint((bits-1)%WordBits)
	return z
}

// RandBelow returns a uniform Nat in [0, n) by rejection sampling.
func (r *RNG) RandBelow(n Nat) Nat {
	n = trim(n)
	if len(n) == 0 {
		panic("mpint: RandBelow zero bound")
	}
	z := make(Nat, len(n))
	r.randBelowInto(z, n)
	return trim(z)
}

// randBelowInto is RandBelow for trimmed n ≠ 0, drawing into z (len(n)
// limbs) and redrawing into the same limbs on every rejection.
func (r *RNG) randBelowInto(z, n Nat) {
	bits := n.BitLen()
	for {
		r.fillBits(z, bits)
		if Cmp(z, n) < 0 {
			return
		}
	}
}

// RandCoprime returns a uniform Nat in [1, n) that is coprime with n —
// the r parameter of Paillier encryption. The candidate and the two working
// copies of the coprimality check are allocated once and reused across
// rejections.
func (r *RNG) RandCoprime(n Nat) Nat {
	n = trim(n)
	if len(n) == 0 {
		panic("mpint: RandBelow zero bound")
	}
	return r.randCoprimeInto(make(Nat, len(n)), make(Nat, gcdWords(len(n))), n)
}

// randCoprimeInto is RandCoprime for trimmed n ≠ 0 on caller-held limbs — the
// same draws, the same rejections, the same check: the candidate is drawn into
// z (len(n) limbs), redrawn there on every rejection, and comes back trimmed;
// work (gcdWords(len(n)) limbs) is the coprimality check's.
func (r *RNG) randCoprimeInto(z, work, n Nat) Nat {
	for {
		r.randBelowInto(z, n)
		c := trim(z)
		if len(c) > 0 && gcdInto(n, c, work).IsOne() {
			return c
		}
	}
}
