// Package batch implements FLBooster's Batch Compression layer (§IV-C):
// packing n = ⌊k/(r+b)⌋ quantized gradients into a single k-bit plaintext
// (Eq. 9) before encryption, so one HE operation and one ciphertext carry n
// values. Because each slot keeps b zero guard bits above its r data bits,
// homomorphic addition of up to p = 2^b ciphertexts cannot carry across slot
// boundaries, and — since the top slot's guard bits are the integer's most
// significant bits — a packed plaintext is always < 2^(k−b) < n, so it never
// exceeds the Paillier modulus.
//
// One Layout is every packing of the protocol, in both directions: a block of
// bits a value, ⌊plainBits/block⌋ blocks a plaintext, the value's offset and
// width inside its block and a guard above it that must read zero, with one
// Pack, one Split and one set of rejects. It has two parameterisations. The
// aggregation slot (Packer) is a block of r+b bits, the value at its bottom
// and no guard. The vertical protocols' broadcast and return path
// (internal/fl/vertical.go) are W-bit slots and blocks of 2s−1 of them, the
// value at slot s−1 under a W−64-bit guard.
package batch

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"flbooster/internal/mpint"
	"flbooster/internal/quant"
)

// ErrKeyTooSmall reports a key whose plaintexts cannot hold one block — an
// r+b-bit slot — below the modulus, so that even one value a plaintext could
// wrap mod n.
var ErrKeyTooSmall = errors.New("batch: key too small for one slot")

// ErrTooWide reports a plaintext with bits above the slots it carries, or a
// value with a bit in the guard above it. A plaintext to split comes from
// another party, so this is outside input, not a bug.
var ErrTooWide = errors.New("batch: plaintext wider than its slots")

// ErrCount reports a value count the plaintexts cannot carry: a negative
// one, or one that needs more or fewer plaintexts than were received.
var ErrCount = errors.New("batch: value count does not match the plaintexts")

// Layout is one packing of values into plaintexts, the same for both
// directions of the protocol: a plaintext is per blocks of block bits, block 0
// the least significant; a block's value is the bits bits at offset at, and
// the guard bits above the value must read zero. Build one with NewLayout.
type Layout struct {
	block, per, at, bits, guard int
}

// NewLayout is the layout of bits-bit values at offset at of block-bit
// blocks, each with guard zero bits above it, in plaintexts below
// 2^plainBits: per = ⌊plainBits/block⌋ blocks a plaintext, so a plaintext
// whose blocks are all full stays below 2^plainBits. A value is 1–64 bits, a
// guard at most 64, and the two with the offset fit the block. plainBits
// below one block is ErrKeyTooSmall.
func NewLayout(plainBits, block, at, bits, guard int) (Layout, error) {
	if bits < 1 || bits > 64 || guard < 0 || guard > 64 || at < 0 || at > block-bits-guard {
		return Layout{}, fmt.Errorf("batch: a %d-bit value at bit %d under a %d-bit guard does not fit a %d-bit block",
			bits, at, guard, block)
	}
	if plainBits < block {
		return Layout{}, fmt.Errorf("%w: %d-bit plaintexts cannot hold one %d-bit block", ErrKeyTooSmall, plainBits, block)
	}
	return Layout{block: block, per: plainBits / block, at: at, bits: bits, guard: guard}, nil
}

// Per is the values a plaintext carries.
func (l Layout) Per() int { return l.per }

// Block is the width of one value's block.
func (l Layout) Block() int { return l.block }

// At is the offset of the value inside its block.
func (l Layout) At() int { return l.at }

// Plaintexts is how many plaintexts carry n values, ⌈n/per⌉; 0 for n ≤ 0.
func (l Layout) Plaintexts(n int) int {
	if n <= 0 {
		return 0
	}
	return n/l.per + min(n%l.per, 1)
}

// Pack appends to dst the plaintexts of n values, value(i) the i-th, which
// must fit the layout's value bits. Each plaintext is assembled in the limbs
// dst's capacity holds at its index (mpint.Spare) where they are long enough
// (mpint.Reuse), as many limbs as reach its last value's top bit. value is
// only called, never kept.
func (l Layout) Pack(dst []mpint.Nat, n int, value func(i int) uint64) []mpint.Nat {
	for base := 0; base < n; base += l.per {
		k := min(l.per, n-base)
		pt := mpint.Reuse(mpint.Spare(dst), ((k-1)*l.block+l.at+l.bits+mpint.WordBits-1)/mpint.WordBits)
		for j := range k {
			mpint.OrField(pt, j*l.block+l.at, value(base+j))
		}
		dst = append(dst, mpint.TakeWords(pt))
	}
	return dst
}

// Raw is the Split callback that keeps each value as it is read.
func Raw(_ int, v uint64) (uint64, error) { return v, nil }

// Split reads count values laid out by l out of pts and returns f(i, v) for
// value i, v, in order. The plaintexts and the count come from another party,
// so a count they cannot carry (ErrCount), a bit above a plaintext's declared
// blocks or in a value's guard (ErrTooWide) rejects before anything is
// allocated; the only allocation is the count results. An error from f stops
// the split and is returned as it is.
func Split[T any](l Layout, pts []mpint.Nat, count int, f func(i int, v uint64) (T, error)) ([]T, error) {
	if need := l.Plaintexts(count); count < 0 || need != len(pts) {
		return nil, fmt.Errorf("%w: %d values need %d plaintexts, got %d", ErrCount, count, need, len(pts))
	}
	guard := uint64(1)<<l.guard - 1
	for g, pt := range pts {
		k := min(l.per, count-g*l.per)
		if width := pt.BitLen(); width > k*l.block {
			return nil, fmt.Errorf("%w: plaintext %d is %d bits wide, its %d blocks hold %d", ErrTooWide, g, width, k, k*l.block)
		}
		for j := 0; l.guard > 0 && j < k; j++ {
			if pt.Field(j*l.block+l.at+l.bits)&guard != 0 {
				return nil, fmt.Errorf("%w: plaintext %d, value %d has a bit in the %d guard bits above it", ErrTooWide, g, j, l.guard)
			}
		}
	}
	mask := ^uint64(0) >> (64 - l.bits)
	out := make([]T, 0, count)
	for g, pt := range pts {
		for j := range min(l.per, count-g*l.per) {
			v, err := f(len(out), pt.Field(j*l.block+l.at)&mask)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	return out, nil
}

// Packer is the aggregation side of batch compression: a quantizer and the
// layout of its slots, each r+b bits with the value at its bottom and no
// guard, the b guard bits being the slot's own top bits that a sum of up to
// 2^b values carries into. Batch compression off is a Packer of one slot a
// plaintext.
type Packer struct {
	q      *quant.Quantizer
	layout Layout
}

// New builds a packer for a key of keyBits bits over the given quantizer.
func New(q *quant.Quantizer, keyBits int) (*Packer, error) {
	if q == nil {
		return nil, fmt.Errorf("batch: nil quantizer")
	}
	// Safety bound the paper's n = ⌊k/(r+b)⌋ formula glosses: an aggregated
	// plaintext is < 2^(n·(r+b)), and the Paillier modulus only guarantees
	// n ≥ 2^(k−1). The layout packs below 2^(k−1), ⌊(k−1)/(r+b)⌋ slots: one
	// fewer when r+b divides k (31 instead of 32 at k=1024, r+b=32), where a
	// full packing could wrap mod n after homomorphic addition and silently
	// corrupt every slot.
	slot := int(q.SlotBits())
	l, err := NewLayout(keyBits-1, slot, 0, slot, 0)
	if err != nil {
		return nil, err
	}
	return &Packer{q: q, layout: l}, nil
}

// NewSingle is New at one slot a plaintext, the encoding without batch
// compression: the key must still hold that slot below its modulus.
func NewSingle(q *quant.Quantizer, keyBits int) (*Packer, error) {
	p, err := New(q, keyBits)
	if err != nil {
		return nil, err
	}
	p.layout.per = 1 // the layout of block-bit plaintexts
	return p, nil
}

// Slots returns n, the number of values per plaintext.
func (p *Packer) Slots() int { return p.layout.per }

// Layout is the packer's slot layout.
func (p *Packer) Layout() Layout { return p.layout }

// NumPlaintexts returns how many plaintexts carry n values (⌈n/slots⌉).
func (p *Packer) NumPlaintexts(n int) int { return p.layout.Plaintexts(n) }

// Pack lays out quantized values into plaintexts, slot 0 at the least
// significant position (Eq. 9 read right-to-left). Values must fit in r
// bits; a violation is a programming error upstream and is reported.
func (p *Packer) Pack(vals []uint64) ([]mpint.Nat, error) {
	for i, v := range vals {
		if v>>p.q.RBits() != 0 {
			return nil, fmt.Errorf("batch: value %d at index %d exceeds %d-bit slot", v, i, p.q.RBits())
		}
	}
	pts := make([]mpint.Nat, 0, p.NumPlaintexts(len(vals)))
	return p.layout.Pack(pts, len(vals), func(i int) uint64 { return vals[i] }), nil
}

// Unpack extracts `count` aggregated slot values from packed plaintexts.
// After homomorphic aggregation each slot holds a sum that may occupy up to
// r+b bits; the full slot is returned so quant.DequantizeSum sees the carry.
// The layout's rejects are Split's: a plaintext with a bit above the slots it
// carries is ErrTooWide.
func (p *Packer) Unpack(packed []mpint.Nat, count int) ([]uint64, error) {
	return Split(p.layout, packed, count, Raw)
}

// EncodeGradientsInto is the full client-side path: quantize a float
// gradient vector and pack it into plaintexts ready for encryption —
// Pack(QuantizeVec(grads)) limb for limb, in one pass: each value goes from
// the quantizer, which clamps it to r bits, straight into its slot, so the
// quantized vector never exists. It appends into dst[:0], each plaintext in
// the limbs dst's capacity holds at its index (Layout.Pack), so a caller that
// owns a dead batch's values allocates none. Those values are clobbered. A
// NaN gradient fails the whole batch with quant.ErrNaN.
func (p *Packer) EncodeGradientsInto(dst []mpint.Nat, grads []float64) ([]mpint.Nat, error) {
	if i := slices.IndexFunc(grads, math.IsNaN); i >= 0 {
		return nil, fmt.Errorf("batch: gradient %d: %w", i, quant.ErrNaN)
	}
	return p.layout.Pack(dst[:0], len(grads), func(i int) uint64 { return p.q.Quantize(grads[i]) }), nil
}

// DecodeAggregated is the full server→client path after decryption: unpack
// `count` slots and dequantize sums of `parties` contributions —
// Unpack then quant.DequantizeSum a slot, rejects and their texts included,
// in one pass: Split checks every plaintext first, then each slot is
// dequantized as it is read, so the sums never exist.
func (p *Packer) DecodeAggregated(packed []mpint.Nat, count, parties int) ([]float64, error) {
	return Split(p.layout, packed, count, func(i int, sum uint64) (float64, error) {
		v, err := p.q.DequantizeSum(sum, parties)
		if err != nil {
			return 0, fmt.Errorf("quant: element %d: %w", i, err)
		}
		return v, nil
	})
}
