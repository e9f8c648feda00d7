// Package quant implements FLBooster's Encoding-Quantization layer (§IV-B).
//
// Homomorphic encryption operates on unsigned integers, so signed gradients
// must be encoded first. Existing FL systems encrypt the significand and
// ship the exponent in plaintext, leaking the magnitude interval; FLBooster
// instead linearly translates a bounded gradient m ∈ [−α, α] to
// e = m + α (Eq. 6), amplifies it to r bits q = e·(2^r − 1) (Eq. 7), and
// reserves b = ⌈log₂ p⌉ zero "overflow bits" above the value (Eq. 8) so the
// homomorphic sum of p participants cannot spill into the neighbouring slot.
//
// α is the constant Alpha = 1: every profile's gradients and SecureBoost's
// (g, h) stream quantize in [−1, 1]. Eq. 7 as printed assumes e ∈ [0, 1],
// i.e. α = ½; at α = 1 e spans [0, 2], so this implementation normalizes by
// the interval width, q = e/(2α)·(2^r − 1), the paper's formula at α = ½.
package quant

import (
	"errors"
	"fmt"
)

// Alpha is α, the gradient bound: Quantize maps [−α, α] onto [0, 2^r − 1].
const Alpha = 1

// ErrNaN rejects a NaN gradient. A NaN has no place in [−α, α], and the
// float-to-integer conversion Quantize would reach is implementation-defined
// for it, so it is refused before it is encoded rather than clamped like ±Inf.
var ErrNaN = errors.New("quant: gradient is NaN")

// ErrOverflow rejects a sum DequantizeSum cannot have been handed honestly: a
// count outside [1, participants], or a value above count·(2^r − 1). A sum
// comes from a decrypted slot, so this is corrupt input, not a bug.
var ErrOverflow = errors.New("quant: sum out of range")

// Quantizer converts bounded floats to fixed-width unsigned integers and
// back. The zero value is not usable; construct with New.
type Quantizer struct {
	rBits        uint   // quantization bits per value
	participants int    // p, the most values one sum spans
	bBits        uint   // overflow headroom ⌈log₂ p⌉
	maxQ         uint64 // 2^r − 1
}

// New builds a quantizer for gradients in [−Alpha, Alpha], quantized to
// rBits, with headroom for summing `participants` values: the most values one
// sum spans — the parties of an aggregate, the samples of a histogram bin.
func New(rBits uint, participants int) (*Quantizer, error) {
	switch {
	case rBits < 2 || rBits > 52:
		// Above 52 bits a float64 cannot address individual steps.
		return nil, fmt.Errorf("quant: r must be in [2, 52], got %d", rBits)
	case participants < 1:
		return nil, fmt.Errorf("quant: need at least one participant, got %d", participants)
	}
	b := ceilLog2(participants)
	if b == 0 {
		b = 1 // a single party still gets one guard bit, as Eq. 8 draws it
	}
	if rBits+b > 63 {
		return nil, fmt.Errorf("quant: r+b = %d exceeds 63 bits", rBits+b)
	}
	return &Quantizer{
		rBits:        rBits,
		participants: participants,
		bBits:        b,
		maxQ:         1<<rBits - 1,
	}, nil
}

// MustNew is New for known-good parameters.
func MustNew(rBits uint, participants int) *Quantizer {
	q, err := New(rBits, participants)
	if err != nil {
		panic(err)
	}
	return q
}

func ceilLog2(n int) uint {
	var b uint
	v := 1
	for v < n {
		v <<= 1
		b++
	}
	return b
}

// RBits returns r, the data bits per value.
func (q *Quantizer) RBits() uint { return q.rBits }

// MaxQ returns 2^r − 1, the largest quantized value: a sum of k values is
// at most k·MaxQ().
func (q *Quantizer) MaxQ() uint64 { return q.maxQ }

// SlotBits returns r+b, the total width of one packed slot (Eq. 8).
func (q *Quantizer) SlotBits() uint { return q.rBits + q.bBits }

// Step returns the quantization step 2α/(2^r − 1); the worst-case error of
// one value is Step()/2.
func (q *Quantizer) Step() float64 { return 2 * Alpha / float64(q.maxQ) }

// MaxError returns the worst-case absolute error introduced by quantizing a
// single in-range value.
func (q *Quantizer) MaxError() float64 { return q.Step() / 2 }

// Quantize maps m ∈ [−α, α] to an unsigned integer in [0, 2^r−1]. Values
// outside the bound, ±Inf included, are clamped — the behaviour gradient
// clipping gives FL training — never wrapped. m must not be NaN (ErrNaN):
// the encoders reject one before it gets here.
func (q *Quantizer) Quantize(m float64) uint64 {
	if m <= -Alpha {
		return 0
	}
	if m >= Alpha {
		return q.maxQ
	}
	e := m + Alpha                                 // Eq. 6
	v := uint64(e/(2*Alpha)*float64(q.maxQ) + 0.5) // Eq. 7, normalized
	if v > q.maxQ {
		v = q.maxQ
	}
	return v
}

// Dequantize inverts Quantize for a single value.
func (q *Quantizer) Dequantize(v uint64) float64 {
	return float64(v)/float64(q.maxQ)*(2*Alpha) - Alpha
}

// DequantizeSum decodes the homomorphic sum of `count` quantized values:
// Σqᵢ = Σ(mᵢ+α)/(2α)·(2^r−1), so Σmᵢ = sum/(2^r−1)·2α − count·α.
// count must not exceed the participant capacity declared at construction;
// either reject is ErrOverflow.
func (q *Quantizer) DequantizeSum(sum uint64, count int) (float64, error) {
	if count < 1 || count > q.participants {
		return 0, fmt.Errorf("%w: sum of %d values exceeds declared capacity %d",
			ErrOverflow, count, q.participants)
	}
	if max := uint64(count) * q.maxQ; sum > max {
		return 0, fmt.Errorf("%w: aggregated value %d exceeds maximum %d — slot corruption", ErrOverflow, sum, max)
	}
	return float64(sum)/float64(q.maxQ)*(2*Alpha) - float64(count)*Alpha, nil
}

// QuantizeVec quantizes a gradient vector.
func (q *Quantizer) QuantizeVec(ms []float64) []uint64 {
	out := make([]uint64, len(ms))
	for i, m := range ms {
		out[i] = q.Quantize(m)
	}
	return out
}
