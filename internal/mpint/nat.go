// Package mpint implements arbitrary-precision unsigned integer arithmetic
// from scratch on 64-bit limbs.
//
// An integer is a little-endian vector of machine words, the paper's FRNS
// ("radix-based multi-precision number system"). The paper fixes w = 32
// because one simulated GPU thread owns a contiguous run of 32-bit words;
// that is a property of the *modelled* kernel, and it lives where the model
// does: internal/ghe/cost.go counts 32-bit word-ops and Mont.Limbs reports
// the modulus size in 32-bit words. The host arithmetic that produces the
// bits runs on the machine's own 64-bit words (math/bits.Mul64/Add64/Div64),
// and Algorithm 2's limb-parallel Montgomery product runs as amm52's lanes
// (one multiply spread over a ZMM register's eight 52-bit digits), which
// changes how long an experiment takes and nothing it reports.
//
// The package provides the full arithmetic substrate required by Paillier
// and RSA: addition, subtraction, schoolbook multiplication,
// Knuth Algorithm-D division, Montgomery multiplication (the CIOS method of
// Algorithm 1 in the paper), sliding-window modular exponentiation, Lehmer's
// GCD and the modular inverse on the same walk, Miller–Rabin prime generation, and
// the arithmetic a holder of a factorisation n = p·q does through it (CRT).
//
// math/big is deliberately not used anywhere in this package; the test suite
// uses it only as a differential oracle.
package mpint

import "math/bits"

// Word is a single limb: the host's 64-bit machine word.
type Word = uint64

// WordBits is the number of bits per limb.
const WordBits = 64

// Nat is an unsigned multi-precision integer stored as little-endian limbs.
// The canonical form has no trailing zero limbs; the zero value (nil) is 0.
// Nat values are immutable by convention: arithmetic functions allocate
// fresh results and never alias their inputs.
type Nat []Word

// trim removes trailing zero limbs, returning the canonical form.
func trim(x Nat) Nat {
	i := len(x)
	for i > 0 && x[i-1] == 0 {
		i--
	}
	return x[:i]
}

// Zero returns the canonical zero.
func Zero() Nat { return nil }

// One returns the canonical one.
func One() Nat { return Nat{1} }

// FromUint64 converts a uint64 into a Nat.
func FromUint64(v uint64) Nat {
	if v == 0 {
		return nil
	}
	return Nat{v}
}

// Uint64 returns the low 64 bits of x and whether x fits in a uint64.
func (x Nat) Uint64() (v uint64, ok bool) {
	x = trim(x)
	if len(x) == 0 {
		return 0, true
	}
	return x[0], len(x) == 1
}

// IsZero reports whether x == 0.
func (x Nat) IsZero() bool { return len(trim(x)) == 0 }

// IsOne reports whether x == 1.
func (x Nat) IsOne() bool {
	t := trim(x)
	return len(t) == 1 && t[0] == 1
}

// IsEven reports whether x is even.
func (x Nat) IsEven() bool { return len(x) == 0 || x[0]&1 == 0 }

// Clone returns an independent copy of x.
func (x Nat) Clone() Nat {
	if len(x) == 0 {
		return nil
	}
	c := make(Nat, len(x))
	copy(c, x)
	return c
}

// BitLen returns the length of x in bits; BitLen(0) == 0.
func (x Nat) BitLen() int {
	t := trim(x)
	if len(t) == 0 {
		return 0
	}
	return (len(t)-1)*WordBits + bits.Len64(t[len(t)-1])
}

// Bit returns bit i of x (0 or 1). Bits beyond BitLen are 0.
func (x Nat) Bit(i int) uint {
	if i < 0 {
		panic("mpint: negative bit index")
	}
	w, b := i/WordBits, uint(i%WordBits)
	if w >= len(x) {
		return 0
	}
	return uint(x[w]>>b) & 1
}

// Field returns bits [off, off+64) of x, from at most two limbs; bits past
// its last limb read 0. A caller that wants fewer bits masks them off. With
// OrField it is the one bit-field codec of the slot packings (batch.Layout,
// the aggregation slots and the vertical broadcast and return slots).
func (x Nat) Field(off int) uint64 {
	w, sh := off/WordBits, uint(off%WordBits)
	var v uint64
	if w < len(x) {
		v = x[w] >> sh
	}
	if sh != 0 && w+1 < len(x) {
		v |= x[w+1] << (WordBits - sh)
	}
	return v
}

// OrField ors v into z at bit offset off, spilling into the next limb when
// the field straddles one; z must have every limb a set bit of v lands in.
func OrField(z Nat, off int, v uint64) {
	w, sh := off/WordBits, uint(off%WordBits)
	z[w] |= v << sh
	if sh != 0 && v>>(WordBits-sh) != 0 {
		z[w+1] |= v >> (WordBits - sh)
	}
}

// Cmp compares x and y, returning -1, 0, or +1.
func Cmp(x, y Nat) int {
	x, y = trim(x), trim(y)
	if len(x) != len(y) {
		if len(x) < len(y) {
			return -1
		}
		return 1
	}
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != y[i] {
			if x[i] < y[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// addInto sets z = x + y for len(x) ≥ len(y) and len(z) ≥ len(x), returning
// the carry out of limb len(x)-1. z may alias x or y.
func addInto(z, x, y []Word) Word {
	var c uint64
	for i := range y {
		z[i], c = bits.Add64(x[i], y[i], c)
	}
	for i := len(y); i < len(x); i++ {
		z[i], c = bits.Add64(x[i], 0, c)
	}
	return c
}

// subInto sets z = x − y for len(x) ≥ len(y) and len(z) ≥ len(x), returning
// the borrow out of limb len(x)-1 (1 when y > x, z then holding the
// two's-complement wraparound). z may alias x or y.
func subInto(z, x, y []Word) Word {
	var b uint64
	for i := range y {
		z[i], b = bits.Sub64(x[i], y[i], b)
	}
	for i := len(y); i < len(x); i++ {
		z[i], b = bits.Sub64(x[i], 0, b)
	}
	return b
}

// Add returns x + y.
func Add(x, y Nat) Nat {
	if len(x) < len(y) {
		x, y = y, x
	}
	z := make(Nat, len(x)+1)
	z[len(x)] = addInto(z, x, y)
	return trim(z)
}

// AddWord returns x + w.
func AddWord(x Nat, w Word) Nat {
	z := make(Nat, len(x)+1)
	c := w
	for i, xi := range x {
		z[i], c = bits.Add64(xi, c, 0)
	}
	z[len(x)] = c
	return trim(z)
}

// Sub returns x - y. It panics if y > x; unsigned arithmetic has no
// representation for negative values.
func Sub(x, y Nat) Nat {
	x, y = trim(x), trim(y)
	if len(y) > len(x) {
		panic("mpint: Sub underflow")
	}
	z := make(Nat, len(x))
	if subInto(z, x, y) != 0 {
		panic("mpint: Sub underflow")
	}
	return trim(z)
}

// SubWord returns x - w, panicking on underflow.
func SubWord(x Nat, w Word) Nat {
	x = trim(x)
	z := make(Nat, len(x))
	b := w
	for i, xi := range x {
		z[i], b = bits.Sub64(xi, b, 0)
	}
	if b != 0 {
		panic("mpint: Sub underflow")
	}
	return trim(z)
}

// lshInto sets z = x << s for 0 < s < WordBits and len(z) == len(x), returning
// the bits shifted out of the top limb. z may alias x.
func lshInto(z, x []Word, s uint) Word {
	var carry Word
	for i, xi := range x {
		z[i] = xi<<s | carry
		carry = xi >> (WordBits - s)
	}
	return carry
}

// rshInto sets z = x >> s for 0 < s < WordBits and len(z) == len(x). z may
// alias x.
func rshInto(z, x []Word, s uint) {
	for i := 0; i < len(x)-1; i++ {
		z[i] = x[i]>>s | x[i+1]<<(WordBits-s)
	}
	if n := len(x); n > 0 {
		z[n-1] = x[n-1] >> s
	}
}

// Lsh returns x << s.
func Lsh(x Nat, s uint) Nat {
	x = trim(x)
	if len(x) == 0 || s == 0 {
		return x.Clone()
	}
	words := int(s / WordBits)
	z := make(Nat, len(x)+words+1)
	if b := s % WordBits; b == 0 {
		copy(z[words:], x)
	} else {
		z[words+len(x)] = lshInto(z[words:words+len(x)], x, b)
	}
	return trim(z)
}

// Rsh returns x >> s.
func Rsh(x Nat, s uint) Nat {
	x = trim(x)
	words := int(s / WordBits)
	if words >= len(x) {
		return nil
	}
	z := make(Nat, len(x)-words)
	if b := s % WordBits; b == 0 {
		copy(z, x[words:])
	} else {
		rshInto(z, x[words:], b)
	}
	return trim(z)
}

// TrailingZeroBits returns the number of consecutive zero bits starting at
// bit 0. TrailingZeroBits(0) == 0 by convention.
func (x Nat) TrailingZeroBits() uint {
	for i, w := range x {
		if w != 0 {
			return uint(i*WordBits + bits.TrailingZeros64(w))
		}
	}
	return 0
}

// decimalChunk is the largest power of ten in a limb, and decimalDigits its
// exponent: String moves this many digits per pass over the limbs.
const (
	decimalChunk  = 10_000_000_000_000_000_000
	decimalDigits = 19
)

// String formats x in decimal.
func (x Nat) String() string {
	x = trim(x)
	if len(x) == 0 {
		return "0"
	}
	// Repeatedly divide by 10¹⁹ in place, filling 19-digit groups from the
	// low end of the buffer's tail.
	rem := x.Clone()
	buf := make([]byte, (len(x)*WordBits*31/100)+decimalDigits+1) // ≥ bitlen·log10(2) digits
	at := len(buf)
	for len(rem) > 0 {
		r := divWordInPlace(rem, decimalChunk)
		rem = trim(rem)
		for d := 0; d < decimalDigits && (r != 0 || len(rem) > 0); d++ {
			at--
			buf[at] = byte('0' + r%10)
			r /= 10
		}
	}
	return string(buf[at:])
}

// Bytes returns the big-endian byte encoding of x with no leading zeros;
// Bytes(0) is an empty slice.
func (x Nat) Bytes() []byte {
	return x.AppendBytes(nil)
}

// AppendBytes appends the big-endian byte encoding of x (no leading zeros)
// to dst and returns the extended slice; zero appends nothing. Encoders with
// a reusable buffer avoid the per-value allocation Bytes pays.
func (x Nat) AppendBytes(dst []byte) []byte {
	x = trim(x)
	if len(x) == 0 {
		return dst
	}
	top := x[len(x)-1]
	for shift := (bits.Len64(top) - 1) &^ 7; shift >= 0; shift -= 8 {
		dst = append(dst, byte(top>>uint(shift)))
	}
	for i := len(x) - 2; i >= 0; i-- {
		w := x[i]
		dst = append(dst, byte(w>>56), byte(w>>48), byte(w>>40), byte(w>>32),
			byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
	}
	return dst
}

// FromBytes parses a big-endian byte slice into a Nat.
func FromBytes(b []byte) Nat { return SetBytes(nil, b) }

// SetBytes is FromBytes into z's limbs: the value is parsed into them where
// their capacity holds it, into fresh ones where it does not, and z is
// clobbered either way. Writes stay inside z's capacity, so limbs carved from
// one array with clipped capacities never spill into a neighbour.
func SetBytes(z Nat, b []byte) Nat {
	z = Reuse(z, (len(b)+7)/8)
	for i, c := range b {
		// byte i from the big end contributes to bit position 8*(len-1-i)
		shift := uint(8 * (len(b) - 1 - i))
		z[shift/WordBits] |= Word(c) << (shift % WordBits)
	}
	return trim(z)
}

// Reuse returns n zero limbs: z's own when its capacity holds n, fresh ones
// otherwise. It is how the owner of a dead value writes the next value into
// its limbs instead of dropping them for the collector.
func Reuse(z Nat, n int) Nat {
	z = resize(z, n)
	clear(z)
	return z
}

// Spare returns the value dst's capacity holds just past its length — the
// limbs an appending Into form writes its next value into (SetBytes, Reuse)
// — or nil when dst is full.
func Spare(dst []Nat) Nat {
	if len(dst) == cap(dst) {
		return nil
	}
	return dst[:len(dst)+1][len(dst)]
}

// resize is Reuse without the zeroing: the limbs hold whatever they held.
func resize(z Nat, n int) Nat {
	if z == nil || cap(z) < n {
		return make(Nat, n)
	}
	return z[:n]
}

// FromWords builds a Nat from a little-endian limb slice.
func FromWords(w []Word) Nat {
	z := make(Nat, len(w))
	copy(z, w)
	return trim(z)
}

// TakeWords is FromWords without the copy: w becomes the limbs of the result,
// and the caller must not write to it again.
func TakeWords(w []Word) Nat { return trim(w) }
