package fl

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"flbooster/internal/flnet"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
)

// Vertical-protocol helpers. The hetero models exchange three kinds of HE
// payloads:
//
//   - *aggregatable* vectors (partial scores, activations) that batch
//     compression packs because downstream use is slot-wise addition:
//     EncryptGradients / DecryptAggregated;
//   - the *per-sample broadcast* (residuals, deltas, gradient/hessian terms)
//     that feeds per-sample homomorphic multiply-accumulate on the hosts and
//     therefore stays one value per ciphertext under every profile:
//     EncryptValuesUnpacked, WeightedSums;
//   - the *return path*: the final per-feature (or per-bin) sums a party
//     sends to the key holder to be opened. Nobody computes on those again,
//     each is at most 64 bits wide inside a KeyBits−1-bit plaintext, and so
//     under batch compression OpenSums shifts them homomorphically into the
//     64-bit slots of ⌈k/slots⌉ ciphertexts before they touch the wire.
//
// The broadcast is not packed here. Packing several residuals into one
// plaintext turns the hosts' E(d)^x̃ into a convolution: the slot the host
// wants holds Σᵢ dᵢ·x̃ᵢⱼ, every other slot holds cross-terms of its features
// with other samples' residuals, which the arbiter would read unless each
// is masked, and every sample-feature pair costs a slot stride of exponent
// bits (64) where it costs the fixed-point width (about 10) today.

// ErrSumBound reports a return-path sum whose upper bound does not fit a
// 64-bit slot: packing it could carry into its neighbour, so nothing is
// packed or sent.
var ErrSumBound = errors.New("fl: return-path sum bound exceeds its 64-bit slot")

// ErrSlotCorrupt reports a decrypted return-path plaintext that contradicts
// its declared layout: bits beyond the declared slots, a plaintext count
// that does not match the declared value count, or a value above the bound
// its sender proved for it.
var ErrSlotCorrupt = errors.New("fl: return-path slot corruption")

// returnSlotBits is the width of one return-path slot: the uint64 DecryptRaw
// has always required every raw sum to fit.
const returnSlotBits = 64

// EncryptValuesUnpacked encrypts one quantized value per ciphertext
// regardless of the batch-compression setting.
func (c *Context) EncryptValuesUnpacked(vals []float64) ([]paillier.Ciphertext, error) {
	cts, err := c.encrypt(&c.Key.PublicKey, c.quantizeNats(vals), int64(len(vals)))
	if err != nil {
		return nil, err
	}
	c.Costs.AddCompression(int64(len(vals)), int64(len(cts)))
	return cts, nil
}

// DecryptRaw decrypts ciphertexts to raw unsigned plaintext values (no
// dequantization), one value per ciphertext — the return path with a single
// slot, and the reference OpenSums is tested against.
func (c *Context) DecryptRaw(cts []paillier.Ciphertext) ([]uint64, error) {
	return c.decryptSlots(cts, len(cts), 1)
}

// decryptSlots decrypts a return-path request declared to carry count values,
// slots to a ciphertext, and splits the plaintexts back into the values.
func (c *Context) decryptSlots(cts []paillier.Ciphertext, count, slots int) ([]uint64, error) {
	base := c.simBase()
	start := time.Now()
	pts, err := c.Backend.DecryptVec(c.Key, cts)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	c.Costs.AddHE(wall, c.simSince(base, wall), int64(len(cts)), int64(count))
	return splitSlots(pts, count, slots)
}

// splitSlots is the decryptor side of the return path: pts are the decrypted
// plaintexts of a request that declared count values packed slots to a
// plaintext, value j of plaintext g in bits [64j, 64j+64). Both the
// plaintexts and the declared count come from another party, so a count the
// plaintexts cannot carry and any bit above the declared slots reject with
// ErrSlotCorrupt before or instead of a result, and the only allocation is
// the count values a matching request really holds.
func splitSlots(pts []mpint.Nat, count, slots int) ([]uint64, error) {
	if slots < 1 || count < 0 {
		return nil, fmt.Errorf("%w: %d values in %d-slot plaintexts", ErrSlotCorrupt, count, slots)
	}
	if want := count/slots + min(count%slots, 1); want != len(pts) {
		return nil, fmt.Errorf("%w: %d values declared, %d-slot plaintexts received %d, want %d",
			ErrSlotCorrupt, count, slots, len(pts), want)
	}
	out := make([]uint64, count)
	for g, pt := range pts {
		vals := out[g*slots : min((g+1)*slots, count)]
		if pt.BitLen() > returnSlotBits*len(vals) {
			return nil, fmt.Errorf("%w: plaintext %d is %d bits wide, its %d declared slots hold %d",
				ErrSlotCorrupt, g, pt.BitLen(), len(vals), returnSlotBits*len(vals))
		}
		copy(vals, pt)
	}
	return out, nil
}

// ReturnSlots is how many sums one return-path ciphertext carries: one
// without batch compression, and with it as many 64-bit slots as fit under
// the modulus (n ≥ 2^(KeyBits−1), so 64·slots ≤ KeyBits−1 keeps every packed
// plaintext below n: 15 at 1,024 bits, 31 at 2,048).
func (c *Context) ReturnSlots() int {
	if c.Packer == nil {
		return 1
	}
	return max(1, (c.Key.N.BitLen()-1)/returnSlotBits)
}

// SumBound is the largest value a weighted sum over quantized ciphertexts can
// hold when its weights total weightSum: weightSum·(2^r−1). It is what the
// vertical gradient step passes to OpenSums, and ErrSumBound when the
// product does not fit a slot.
func (c *Context) SumBound(weightSum uint64) (uint64, error) {
	maxQ := uint64(1)<<c.Quant.RBits() - 1
	hi, lo := bits.Mul64(weightSum, maxQ)
	if hi != 0 {
		return 0, fmt.Errorf("%w: weights totalling %d over %d-bit values", ErrSumBound, weightSum, c.Quant.RBits())
	}
	return lo, nil
}

// ReturnRoute names the two ends of one return-path exchange and the kinds
// of its messages.
type ReturnRoute struct {
	Net flnet.Transport
	// Party holds the sums; Decryptor holds the private key.
	Party, Decryptor string
	// Kind labels the request that carries the ciphertexts. ReplyKind labels
	// the plaintext reply (8 bytes a value); empty when the decryptor is the
	// one who wants the values and nothing travels back.
	Kind, ReplyKind string
}

// OpenSums is the return path of the vertical protocols: route.Party holds
// the final sum ciphertexts cts and gets their plaintexts opened by
// route.Decryptor — the same []uint64, bit for bit, that DecryptRaw returns.
//
// With batch compression on, the party first packs ReturnSlots sums into
// each ciphertext (acc ← acc^(2^64)·c, Horner from the top slot down, a pack a
// lane of one ShiftPackVec launch), so ⌈k/slots⌉ ciphertexts and a 4-byte
// value count cross the wire
// and the decryptor decrypts once per packed ciphertext, after which the packed
// batch goes back to the pool. Without it the request is the k ciphertexts
// themselves. cts stay the caller's either way.
//
// bounds[i] is the exact upper bound the party can prove for sum i. A bound
// is a uint64, which is what makes the packing carry-safe: no sum can reach
// into its neighbour's slot. Bounds stay with the party — the slot width is
// public and fixed — and an opened value above its bound rejects with
// ErrSlotCorrupt. Callers derive bounds with overflow-checked arithmetic
// (SumBound) and fail with ErrSumBound before anything is packed.
func (c *Context) OpenSums(route ReturnRoute, cts []paillier.Ciphertext, bounds []uint64) ([]uint64, error) {
	if len(bounds) != len(cts) {
		return nil, fmt.Errorf("%w: %d sums with %d bounds", ErrSumBound, len(cts), len(bounds))
	}
	if len(cts) == 0 {
		return nil, nil
	}
	slots := c.ReturnSlots()
	packed, err := c.packSums(cts, slots)
	if err != nil {
		return nil, err
	}
	request := c.CiphertextWireBytes(len(packed))
	if slots > 1 {
		request += 4 // the value count; one slot a ciphertext implies it
	}
	if err := c.Send(route.Net, route.Party, route.Decryptor, route.Kind, request); err != nil {
		return nil, err
	}
	vals, err := c.decryptSlots(packed, len(cts), slots)
	if err != nil {
		return nil, err
	}
	if len(packed) != len(cts) { // a batch of packSums' own, dead once decrypted
		ReleaseCiphertexts(packed)
	}
	if route.ReplyKind != "" {
		if err := c.Send(route.Net, route.Decryptor, route.Party, route.ReplyKind, int64(8*len(vals))); err != nil {
			return nil, err
		}
	}
	for i, v := range vals {
		if v > bounds[i] {
			return nil, fmt.Errorf("%w: sum %d opened to %d, above its bound %d", ErrSlotCorrupt, i, v, bounds[i])
		}
	}
	return vals, nil
}

// packSums shifts cts into slots-per-ciphertext layout: packed ciphertext g
// holds cts[g·slots+j] in slot j, only the last partly filled — one charged HE
// batch, one kernel launch on the GPU profiles. It is charged as the Horner
// chain it is: a ciphertext-scalar product and a homomorphic addition for
// every sum past the first of its pack.
func (c *Context) packSums(cts []paillier.Ciphertext, slots int) ([]paillier.Ciphertext, error) {
	if slots == 1 || len(cts) == 1 {
		return cts, nil
	}
	base := c.simBase()
	start := time.Now()
	packed, err := c.Backend.ShiftPackVec(&c.Key.PublicKey, cts, slots, returnSlotBits)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	steps := 2 * int64(len(cts)-len(packed))
	c.Costs.AddHE(wall, c.simSince(base, wall), steps, steps)
	c.Costs.AddCompression(int64(len(cts)), int64(len(packed)))
	return packed, nil
}

// Send routes one protocol message of payloadBytes through net and charges
// it to the communication component.
func (c *Context) Send(net flnet.Transport, from, to, kind string, payloadBytes int64) error {
	// The modelled messages are weighed, never read: every one is a slice of
	// the same zero bytes. The transport copies nothing, and the receiver is
	// the Recv below, so the slice is dropped before the next Send reuses it.
	if int64(len(c.zeros)) < payloadBytes {
		c.zeros = make([]byte, payloadBytes)
	}
	msg := flnet.Message{From: from, To: to, Kind: kind, Payload: c.zeros[:payloadBytes]}
	if err := net.Send(msg); err != nil {
		return err
	}
	if _, err := net.Recv(to); err != nil {
		return err
	}
	c.RecordTransfer(msg.WireSize())
	return nil
}

// addCiphertexts is the charged pairwise homomorphic addition of two batches.
func (c *Context) addCiphertexts(a, b []paillier.Ciphertext) ([]paillier.Ciphertext, error) {
	base := c.simBase()
	start := time.Now()
	sums, err := c.Backend.AddVec(&c.Key.PublicKey, a, b)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	c.Costs.AddHE(wall, c.simSince(base, wall), int64(len(a)), int64(len(a)))
	return sums, nil
}

// EncryptNats encrypts caller-prepared plaintexts, charging `instances`
// logical values to the throughput counter (callers that pack several
// values per plaintext pass the packed value count).
func (c *Context) EncryptNats(pts []mpint.Nat, instances int64) ([]paillier.Ciphertext, error) {
	return c.encrypt(&c.Key.PublicKey, pts, instances)
}

// WeightedSums computes k sparse non-negative-integer combinations of one
// ciphertext vector, out[j] = E(Σ t.Weight·plain(cts[t.Index])) over the terms
// t of sums[j]: the homomorphic multiply-accumulate at the heart of the
// vertical gradient and histogram steps, every sum of a host's minibatch (or
// of a tree node's feature) in one charged HE batch — one kernel launch on the
// GPU profiles, the serial product-and-add loop on the CPU ones. Zero weights
// are no terms. The batch is charged once, with one HE operation and one
// instance a non-zero term: a ciphertext-scalar product.
//
// A sum without a non-zero term comes back as a fresh encryption of zero, so
// an empty sum on the wire looks like any other; those are encrypted together
// after the batch and draw one nonce seed, which no sum the models build
// reaches (they skip empty sides and empty bins). A term that refers outside
// cts rejects with mpint.ErrTermIndex before anything is launched, encrypted
// or charged; no sums are no work.
func (c *Context) WeightedSums(cts []paillier.Ciphertext, sums [][]mpint.Term) ([]paillier.Ciphertext, error) {
	if err := mpint.CheckTerms(len(cts), sums); err != nil {
		return nil, fmt.Errorf("fl: WeightedSums: %w", err)
	}
	var terms int64
	var empty []int
	for j, sum := range sums {
		before := terms
		for _, t := range sum {
			if t.Weight != 0 {
				terms++
			}
		}
		if terms == before {
			empty = append(empty, j)
		}
	}
	var out []paillier.Ciphertext
	if terms > 0 {
		base := c.simBase()
		start := time.Now()
		var err error
		if out, err = c.Backend.WeightedSumVec(&c.Key.PublicKey, cts, sums); err != nil {
			return nil, err
		}
		wall := time.Since(start)
		c.Costs.AddHE(wall, c.simSince(base, wall), terms, terms)
	} else {
		out = make([]paillier.Ciphertext, len(sums))
	}
	if len(empty) > 0 {
		zeros, err := c.EncryptNats(make([]mpint.Nat, len(empty)), int64(len(empty)))
		if err != nil {
			return nil, err
		}
		for i, j := range empty {
			out[j] = zeros[i]
		}
	}
	return out, nil
}
