// Package batch implements FLBooster's Batch Compression layer (§IV-C):
// packing n = ⌊k/(r+b)⌋ quantized gradients into a single k-bit plaintext
// (Eq. 9) before encryption, so one HE operation and one ciphertext carry n
// values. Because each slot keeps b zero guard bits above its r data bits,
// homomorphic addition of up to p = 2^b ciphertexts cannot carry across slot
// boundaries, and — since the top slot's guard bits are the integer's most
// significant bits — a packed plaintext is always < 2^(k−b) < n, so it never
// exceeds the Paillier modulus.
package batch

import (
	"errors"
	"fmt"
	"math"

	"flbooster/internal/mpint"
	"flbooster/internal/quant"
)

// ErrKeyTooSmall reports a key whose plaintexts cannot hold one r+b-bit slot
// below the modulus, so that even one value a plaintext could wrap mod n.
var ErrKeyTooSmall = errors.New("batch: key too small for one slot")

// ErrTooWide reports a plaintext with bits above the slots it carries. An
// aggregate comes from another party, so this is outside input, not a bug.
var ErrTooWide = errors.New("batch: plaintext wider than its slots")

// Packer packs quantized values into multi-precision plaintexts. Batch
// compression off is a Packer of one slot a plaintext.
type Packer struct {
	q     *quant.Quantizer
	slots int // values per plaintext: ⌊k/(r+b)⌋
}

// New builds a packer for a key of keyBits bits over the given quantizer.
func New(q *quant.Quantizer, keyBits int) (*Packer, error) {
	if q == nil {
		return nil, fmt.Errorf("batch: nil quantizer")
	}
	slotBits := int(q.SlotBits())
	slots := keyBits / slotBits
	// Safety bound the paper's n = ⌊k/(r+b)⌋ formula glosses: an aggregated
	// plaintext is < 2^(slots·(r+b)), and the Paillier modulus only
	// guarantees n ≥ 2^(k−1). When r+b divides k exactly, a full packing
	// could wrap mod n after homomorphic addition, silently corrupting every
	// slot — so keep slots·(r+b) ≤ k−1 (one slot fewer in the exact-divisor
	// case, e.g. 31 instead of 32 at k=1024, r+b=32).
	if slots*slotBits > keyBits-1 {
		slots--
	}
	if slots < 1 {
		return nil, fmt.Errorf("%w: a key of %d bits cannot hold one %d-bit slot", ErrKeyTooSmall, keyBits, slotBits)
	}
	return &Packer{q: q, slots: slots}, nil
}

// NewSingle is New at one slot a plaintext, the encoding without batch
// compression: the key must still hold that slot below its modulus.
func NewSingle(q *quant.Quantizer, keyBits int) (*Packer, error) {
	p, err := New(q, keyBits)
	if err != nil {
		return nil, err
	}
	p.slots = 1
	return p, nil
}

// Slots returns n, the number of values per plaintext.
func (p *Packer) Slots() int { return p.slots }

// NumPlaintexts returns how many plaintexts carry n values (⌈n/slots⌉).
func (p *Packer) NumPlaintexts(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + p.slots - 1) / p.slots
}

// Pack lays out quantized values into plaintexts, slot 0 at the least
// significant position (Eq. 9 read right-to-left). Values must fit in r
// bits; a violation is a programming error upstream and is reported. Each
// plaintext is assembled in the limbs it is returned in.
func (p *Packer) Pack(vals []uint64) ([]mpint.Nat, error) {
	maxV, slotBits := uint64(1)<<p.q.RBits()-1, int(p.q.SlotBits())
	out := make([]mpint.Nat, 0, p.NumPlaintexts(len(vals)))
	for base := 0; base < len(vals); base += p.slots {
		words := make(mpint.Nat, p.words())
		for s, v := range vals[base:min(base+p.slots, len(vals))] {
			if v > maxV {
				return nil, fmt.Errorf("batch: value %d at index %d exceeds %d-bit slot", v, base+s, p.q.RBits())
			}
			mpint.OrField(words, s*slotBits, v)
		}
		out = append(out, mpint.TakeWords(words))
	}
	return out, nil
}

// words is the host-word length of one packed plaintext's slot region.
func (p *Packer) words() int {
	return (p.slots*int(p.q.SlotBits()) + mpint.WordBits - 1) / mpint.WordBits
}

// Unpack extracts `count` aggregated slot values from packed plaintexts.
// After homomorphic aggregation each slot holds a sum that may occupy up to
// r+b bits; the full slot is returned so quant.DequantizeSum sees the carry.
// A plaintext with a bit above the slots it carries rejects with ErrTooWide.
func (p *Packer) Unpack(packed []mpint.Nat, count int) ([]uint64, error) {
	if err := p.checkUnpack(packed, count); err != nil {
		return nil, err
	}
	slotBits, mask := int(p.q.SlotBits()), uint64(1)<<p.q.SlotBits()-1
	out := make([]uint64, 0, count)
	for pi, pt := range packed {
		for s := 0; s < min(p.slots, count-pi*p.slots); s++ {
			out = append(out, pt.Field(s*slotBits)&mask)
		}
	}
	return out, nil
}

// checkUnpack is Unpack's rejects: a negative count, the wrong number of
// plaintexts for count, and a plaintext with a bit above the slots it
// carries (ErrTooWide).
func (p *Packer) checkUnpack(packed []mpint.Nat, count int) error {
	if count < 0 {
		return fmt.Errorf("batch: negative count %d", count)
	}
	if need := p.NumPlaintexts(count); need != len(packed) {
		return fmt.Errorf("batch: %d values need %d plaintexts, got %d", count, need, len(packed))
	}
	slotBits := uint(p.q.SlotBits())
	for pi, pt := range packed {
		slotsHere := min(p.slots, count-pi*p.slots)
		if width := uint(pt.BitLen()); width > uint(slotsHere)*slotBits {
			return fmt.Errorf("%w: plaintext %d is %d bits wide, its %d slots hold %d",
				ErrTooWide, pi, width, slotsHere, uint(slotsHere)*slotBits)
		}
	}
	return nil
}

// EncodeGradientsInto is the full client-side path: quantize a float
// gradient vector and pack it into plaintexts ready for encryption —
// Pack(QuantizeVec(grads)) limb for limb, in one pass: each value goes from
// the quantizer straight into its slot, so the quantized vector never exists.
// It appends into dst[:0]: plaintext i is packed into the limbs dst's
// capacity holds at index i where they are long enough (mpint.Reuse), so a
// caller that owns a dead batch's values allocates none. Those values are
// clobbered. A NaN gradient fails the whole batch with quant.ErrNaN.
func (p *Packer) EncodeGradientsInto(dst []mpint.Nat, grads []float64) ([]mpint.Nat, error) {
	maxV, slotBits := uint64(1)<<p.q.RBits()-1, int(p.q.SlotBits())
	out := dst[:0]
	for base := 0; base < len(grads); base += p.slots {
		words := mpint.Reuse(mpint.Spare(out), p.words())
		for s, g := range grads[base:min(base+p.slots, len(grads))] {
			if math.IsNaN(g) {
				return nil, fmt.Errorf("batch: gradient %d: %w", base+s, quant.ErrNaN)
			}
			v := p.q.Quantize(g)
			if v > maxV {
				return nil, fmt.Errorf("batch: value %d at index %d exceeds %d-bit slot", v, base+s, p.q.RBits())
			}
			mpint.OrField(words, s*slotBits, v)
		}
		out = append(out, mpint.TakeWords(words))
	}
	return out, nil
}

// DecodeAggregated is the full server→client path after decryption: unpack
// `count` slots and dequantize sums of `parties` contributions —
// Unpack then quant.DequantizeSum a slot, rejects and their texts included,
// in one pass: each slot is dequantized as it is read, so the sums never
// exist. The plaintexts' widths are all checked first, as Unpack does.
func (p *Packer) DecodeAggregated(packed []mpint.Nat, count, parties int) ([]float64, error) {
	if err := p.checkUnpack(packed, count); err != nil {
		return nil, err
	}
	slotBits, mask := int(p.q.SlotBits()), uint64(1)<<p.q.SlotBits()-1
	out := make([]float64, 0, count)
	for pi, pt := range packed {
		for s := 0; s < min(p.slots, count-pi*p.slots); s++ {
			v, err := p.q.DequantizeSum(pt.Field(s*slotBits)&mask, parties)
			if err != nil {
				return nil, fmt.Errorf("quant: element %d: %w", len(out), err)
			}
			out = append(out, v)
		}
	}
	return out, nil
}
