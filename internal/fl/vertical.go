package fl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"flbooster/internal/batch"
	"flbooster/internal/flnet"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
	"flbooster/internal/quant"
)

// Vertical-protocol helpers. The hetero models exchange three kinds of HE
// payloads:
//
//   - *aggregatable* vectors (partial scores, activations) that batch
//     compression packs because downstream use is slot-wise addition:
//     EncryptGradients / DecryptSlotSums, the key holder opening the fold
//     to raw slot sums the guest finishes (its own share added, unless it
//     sent its batch beside a lone host's);
//   - the *per-sample broadcast* (residuals, deltas, gradient/hessian terms)
//     that feeds per-sample homomorphic multiply-accumulate on the hosts:
//     EncryptBroadcast, BroadcastSums. At stride s = 1 it is one value a
//     ciphertext, which is what every profile without batch compression and
//     every model but Hetero LR sends; with it, Hetero LR packs s residuals a
//     plaintext at the public slot stride W (BroadcastStride);
//   - the *return path*: the final per-feature (or per-bin) sums a party
//     sends to the key holder to be opened, OpenBroadcastSums at the
//     broadcast's s. Nobody computes on those again, so under batch
//     compression it shifts them homomorphically into the slots of fewer
//     ciphertexts before they touch the wire.
//
// A gradient sum is signed, Σᵢ q(dᵢ)·σᵢx̃ᵢ with σᵢ the sign of the feature
// value, and opens as that plus the public offset ReturnOffset = 2^63: each
// sign side is capped below 2^63 (SumBound), so the opened value lies in
// [1, 2^64), one 64-bit slot.
//
// Both packed payloads are a batch.Layout, the one the aggregatable vectors'
// Packer holds: the broadcast is W-bit blocks, s a plaintext, a residual in
// each block's low 64 bits (broadcastLayout); the return path is 64-bit
// blocks at s = 1 and blocks of 2s−1 W-bit slots above, the value in slot s−1
// under a W−64-bit guard that must read zero (strideLayout). Both pack with
// the layout's Pack, and the decryptor splits with its Split (splitReturn).
//
// A packed broadcast turns a host's E(D)^x̃ into a convolution. Plaintext g is
// D_g = Σₖ q(d_{gs+k})·2^(kW); for each sum the host raises every D_g to the
// weight of each of its s rows, S_l = Π_g E(D_g)^(σx̃_{gs+l}), and shift-packs
// T = Σ_l S_l·2^((s−1−l)W). Slot s−1 of T's 2s−1 holds exactly the sum the
// unpacked protocol opens; every other slot is a cross-term of the host's
// weights against other rows' residuals, in (−2^63, 2^63) like the sum, and
// masked before the key holder sees it.

// ReturnOffset is O, what a signed return-path sum opens with added: a sum
// whose sign sides are each below 2^63 then opens in [1, 2^64).
const ReturnOffset = 1 << 63

// ErrSumBound reports a return-path sum whose bound does not fit its 64-bit
// slot — a sign side at or above 2^63 — or a request without a bound for every
// sum: packing it could carry into its neighbour, so nothing is packed or
// sent.
var ErrSumBound = errors.New("fl: return-path sum bound exceeds its 64-bit slot")

// ErrSlotCorrupt reports a decrypted return-path plaintext that contradicts
// its declared layout: bits beyond the declared blocks, a target slot at or
// above 2^64 (both over batch.ErrTooWide), a plaintext count that does not
// match the declared value count (over batch.ErrCount), a stride the key
// cannot hold, or a value outside the bounds its sender proved for it.
var ErrSlotCorrupt = errors.New("fl: return-path slot corruption")

const (
	// returnSlotBits is the width of one return-path value: the uint64
	// DecryptRaw has always required every raw sum to fit.
	returnSlotBits = 64
	// maskBits is λ, the statistical masking parameter of a packed
	// broadcast's return: every cross-term slot the key holder opens is
	// within 2^−λ of uniform.
	maskBits = 40
	// BroadcastSlotBits is W, the slot stride of a packed broadcast and of
	// its convolution: a cross-term below 2^64 plus a mask below 2^(64+λ)
	// stays below 2^W, so no slot carries into the next.
	BroadcastSlotBits = returnSlotBits + maskBits + 1
)

// strideLayout is the return-path layout of stride s in plainBits-bit
// plaintexts (KeyBits−1: anything below 2^plainBits is below n). At s = 1 a
// value's block is its 64 bits: one a ciphertext without batch compression,
// as many as fit with it (15 at 1,024 bits, 31 at 2,048). Above, a block is
// the 2s−1 W-bit slots of a masked convolution, the value in slot s−1 and the
// W−64 bits above it clear. A stride outside [1, maxStride] rejects with
// ErrSlotCorrupt.
func strideLayout(plainBits, s int, packed bool) (batch.Layout, error) {
	if s < 1 || s > maxStride(plainBits, packed) {
		return batch.Layout{}, fmt.Errorf("%w: a stride of %d in %d-bit plaintexts (batch compression %t)",
			ErrSlotCorrupt, s, plainBits, packed)
	}
	block, at, guard := returnSlotBits, 0, 0
	if s > 1 {
		block, at, guard = (2*s-1)*BroadcastSlotBits, (s-1)*BroadcastSlotBits, BroadcastSlotBits-returnSlotBits
	}
	if !packed {
		plainBits = block // one value a plaintext
	}
	// By the max, a plaintext holds one block: NewLayout cannot fail.
	return batch.NewLayout(max(plainBits, block), block, at, returnSlotBits, guard)
}

// broadcastLayout is the layout of a stride-s broadcast, s ≥ 1: s values a
// plaintext, value k in the low 64 bits of W-bit slot k.
func broadcastLayout(s int) batch.Layout {
	l, _ := batch.NewLayout(s*BroadcastSlotBits, BroadcastSlotBits, 0, returnSlotBits, 0) // s ≥ 1 slots hold one
	return l
}

// maxStride is the widest stride plainBits-bit plaintexts hold: the most s
// with (2s−1)·W ≤ plainBits under batch compression, 1 without it or when
// not even three slots fit.
func maxStride(plainBits int, packed bool) int {
	if !packed {
		return 1
	}
	return max(1, (plainBits/BroadcastSlotBits+1)/2)
}

// layout is strideLayout under the context's key and profile.
func (c *Context) layout(stride int) (batch.Layout, error) {
	return strideLayout(c.plainBits(), stride, c.Profile.UseBatch())
}

// plainBits is KeyBits−1: n ≥ 2^(KeyBits−1), so every plaintext below
// 2^plainBits is below n.
func (c *Context) plainBits() int { return c.pub.N.BitLen() - 1 }

// ReturnSlots is how many sums one return-path ciphertext of the unpacked
// broadcast (s = 1) carries.
func (c *Context) ReturnSlots() int {
	l, _ := c.layout(1)
	return l.Per()
}

// BroadcastStride is s for one minibatch: how many of its rows one broadcast
// plaintext carries, when host p returns sums[p] sums (its feature count,
// public protocol metadata). It is the stride the key admits that minimises
// the batch's wire ciphertexts, Σₚ ⌈rows/s⌉ + ⌈sums[p]/per(s)⌉, the smaller
// on a tie: 1 without batch compression and under keys with no room for
// three W-bit slots (256 bits and below).
func (c *Context) BroadcastStride(rows int, sums []int) int {
	return broadcastStride(c.plainBits(), c.Profile.UseBatch(), rows, sums)
}

// broadcastStride is BroadcastStride's rule in plainBits-bit plaintexts.
func broadcastStride(plainBits int, packed bool, rows int, sums []int) int {
	best, fewest := 1, -1
	for s := 1; s <= maxStride(plainBits, packed); s++ {
		l, _ := strideLayout(plainBits, s, packed)
		cts := len(sums) * broadcastLayout(s).Plaintexts(rows)
		for _, k := range sums {
			cts += l.Plaintexts(k)
		}
		if fewest < 0 || cts < fewest {
			best, fewest = s, cts
		}
	}
	return best
}

// EncryptBroadcast encrypts a per-sample broadcast s values a plaintext:
// plaintext g is Σₖ q(vals[g·s+k])·2^(k·W), each value quantized on its own,
// and the ⌈len(vals)/s⌉ plaintexts are one charged public-key batch. The
// plaintexts are written into the limbs of a dead plaintext batch and handed
// back once encrypted. A NaN value fails with quant.ErrNaN before anything is
// encrypted or charged; ±Inf clamps to ±α like any value past the bound.
func (p *Party) EncryptBroadcast(vals []float64, s int) ([]paillier.Ciphertext, error) {
	c := p.ctx
	if _, err := c.layout(s); err != nil {
		return nil, err
	}
	if i := slices.IndexFunc(vals, math.IsNaN); i >= 0 {
		return nil, fmt.Errorf("fl: broadcast value %d: %w", i, quant.ErrNaN)
	}
	l := broadcastLayout(s)
	pts := l.Pack(arena.getPlain(l.Plaintexts(len(vals))), len(vals), func(i int) uint64 { return c.Quant.Quantize(vals[i]) })
	cts, err := p.EncryptNats(pts, int64(len(vals)))
	arena.putPlain(pts)
	if err != nil {
		return nil, err
	}
	c.Costs.AddCompression(int64(len(vals)), int64(len(cts)))
	return cts, nil
}

// splitReturn is the decryptor side of the return path: batch.Split of the
// count values a request declared in layout l. The plaintexts, the count and
// the stride come from another party, so every reject — a count the
// plaintexts cannot carry, a bit above the declared blocks or in a target
// slot's guard — is ErrSlotCorrupt over the batch sentinel; the masked slots
// around a target are not read.
func splitReturn(pts []mpint.Nat, count int, l batch.Layout) ([]uint64, error) {
	vals, err := batch.Split(l, pts, count, batch.Raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSlotCorrupt, err)
	}
	return vals, nil
}

// Bound is the interval a return-path value provably opens in, [Lo, Hi]: a
// signed sum's [O − B⁻, O + B⁺] (SumBound), an unsigned one's [0, B].
type Bound struct{ Lo, Hi uint64 }

// SumBound is the interval a signed weighted sum over quantized ciphertexts
// opens in when its negative terms' weights total neg and its positive ones'
// pos: [O − neg·(2^r−1), O + pos·(2^r−1)], O = ReturnOffset. It is what the
// vertical gradient step passes to OpenBroadcastSums, and ErrSumBound when a
// side reaches 2^63. Under a packed broadcast the sides bound every slot of
// the convolution too: each of a slot's terms pairs one of the sum's weights
// with one residual.
func (c *Context) SumBound(neg, pos uint64) (Bound, error) {
	var side [2]uint64
	for i, w := range [2]uint64{neg, pos} {
		hi, lo := bits.Mul64(w, c.Quant.MaxQ())
		if hi != 0 || lo >= 1<<63 {
			return Bound{}, fmt.Errorf("%w: weights totalling %d over %d-bit values reach 2^63", ErrSumBound, w, c.Quant.RBits())
		}
		side[i] = lo
	}
	return Bound{ReturnOffset - side[0], ReturnOffset + side[1]}, nil
}

// ReturnRoute names the decrypting end of one return-path exchange, the
// transport its messages cross and their kinds; the other end is the party
// that holds the sums.
type ReturnRoute struct {
	// Net carries the request and the reply.
	Net flnet.Transport
	// Decryptor holds the private key and opens the sums.
	Decryptor *Holder
	// Kind labels the request that carries the ciphertexts. ReplyKind labels
	// the plaintext reply (8 bytes a value); empty when the decryptor is the
	// one who wants the values and nothing travels back.
	Kind, ReplyKind string
}

// OpenBroadcastSums is the return path of the vertical protocols: p holds the
// final sum ciphertexts cts that BroadcastSums built over a stride-s
// broadcast, and gets their plaintexts opened by route.Decryptor — at s = 1
// the same []uint64, bit for bit, that DecryptRaw returns, and at any s the
// same values the unpacked protocol opens.
//
// With batch compression on the party packs the layout's per values into
// each ciphertext (acc ← acc^(2^bits)·c, Horner from the top block down, a
// pack a lane of one ShiftPackVec launch), so ⌈k/per⌉ ciphertexts cross the
// wire. The request is one frame on route.Net: the stride and the value
// count, a minimal uvarint each, then the ciphertext batch. The
// decryptor builds the layout from the stride it decoded and its own key
// (parseRequest), decrypts the ciphertexts it decoded once each, and replies
// through its SendValues. A packed batch built here goes back to the pool once
// framed; cts stay the caller's.
//
// bounds[i] is the exact interval the party can prove sum i opens in, below
// 2^64, which is what makes the packing carry-safe: no sum can reach into its
// neighbour's slot. Bounds stay with the party — the slot widths are public
// and fixed — and an opened value outside its bounds rejects with
// ErrSlotCorrupt. Callers derive bounds with overflow-checked arithmetic
// (SumBound) and fail with ErrSumBound before anything is packed.
func (p *Party) OpenBroadcastSums(route ReturnRoute, cts []paillier.Ciphertext, bounds []Bound, s int) ([]uint64, error) {
	c, d := p.ctx, route.Decryptor
	if len(bounds) != len(cts) {
		return nil, fmt.Errorf("%w: %d sums with %d bounds", ErrSumBound, len(cts), len(bounds))
	}
	if len(cts) == 0 {
		return nil, nil
	}
	l, err := c.layout(s)
	if err != nil {
		return nil, err
	}
	packed, err := c.packSums(cts, l)
	if err != nil {
		return nil, err
	}
	var head [2 * binary.MaxVarintLen64]byte
	frame := frameCiphertexts(binary.AppendUvarint(binary.AppendUvarint(head[:0], uint64(s)), uint64(len(cts))), packed)
	if len(packed) != len(cts) { // a batch of this call's own, dead once framed
		ReleaseCiphertexts(packed)
	}
	vals, err := exchange(c, route.Net, p.Name, d.Name, route.Kind, frame, d.openRequest)
	if err != nil {
		return nil, err
	}
	if route.ReplyKind != "" {
		if vals, err = d.SendValues(route.Net, p.Name, route.ReplyKind, vals); err != nil {
			return nil, err
		}
	}
	for i, v := range vals {
		if v < bounds[i].Lo || v > bounds[i].Hi {
			return nil, fmt.Errorf("%w: sum %d opened to %d, outside its bounds [%d, %d]", ErrSlotCorrupt, i, v, bounds[i].Lo, bounds[i].Hi)
		}
	}
	return vals, nil
}

// crossMask writes into z's limbs where they hold it the trivial plaintext of
// one block of return layout l (strideLayout at stride s): P = Σ_{k≠s−1}
// (ρₖ + 2^63)·2^(k·W) + offset·2^((s−1)·W) over the block's 2s−1 W-bit slots,
// the target slot s−1 at l.At(), each ρₖ two draws: 64 low bits and λ high
// ones. Slot k ≠ s−1 then opens to its cross-term, in (−2^63, 2^63), plus
// 2^63 + ρₖ: within 2^−λ of uniform and in [0, 2^(64+λ) + 2^64) ⊂ [0, 2^W),
// so it never borrows or carries. At s = 1 P is the offset alone and nothing
// is drawn. A mask slot is up to 105 bits, above the 64 a Layout value holds,
// so the slots are written here and not by l.Pack.
func crossMask(z mpint.Nat, l batch.Layout, offset uint64, draw func() uint64) mpint.Nat {
	z = mpint.Reuse(z, (l.Block()+63)/64)
	for k := range 2*l.At()/BroadcastSlotBits + 1 {
		off := k * BroadcastSlotBits
		if off == l.At() {
			mpint.OrField(z, off, offset)
			continue
		}
		lo, carry := bits.Add64(draw(), 1<<63, 0)
		mpint.OrField(z, off, lo)
		mpint.OrField(z, off+returnSlotBits, draw()&(1<<maskBits-1)+carry)
	}
	return z
}

// packSums shifts cts into the layout's per values a ciphertext: packed
// ciphertext g holds cts[g·per+j] in block j, only the last partly filled.
func (c *Context) packSums(cts []paillier.Ciphertext, l batch.Layout) ([]paillier.Ciphertext, error) {
	if l.Per() == 1 || len(cts) == 1 {
		return cts, nil
	}
	packed, err := c.shiftPack(cts, l.Per(), l.Block())
	if err != nil {
		return nil, err
	}
	c.Costs.AddCompression(int64(len(cts)), int64(len(packed)))
	return packed, nil
}

// shiftPack is one charged ShiftPackVec batch — one kernel launch on the GPU
// profiles — charged as the Horner chain it is: a ciphertext-scalar product
// and a homomorphic addition for every ciphertext past the first of its pack.
func (c *Context) shiftPack(cts []paillier.Ciphertext, slots, slotBits int) (packed []paillier.Ciphertext, err error) {
	_, err = c.chargeHE(func() (int64, int64, error) {
		packed, err = c.Backend.ShiftPackVec(c.pub, cts, slots, slotBits)
		steps := 2 * int64(len(cts)-len(packed))
		return steps, steps, err
	})
	return packed, err
}

// parseRequest is the decryptor's read of a return-path request under its own
// plaintext width and profile: the layout of the stride the request names,
// the value count, and the ciphertext batch behind them. A header that is not
// two minimal uvarints ahead of the batch's count, a stride outside
// [1, maxStride], and a value count the batch's ciphertexts cannot carry
// (over batch.ErrCount) reject with ErrSlotCorrupt.
func parseRequest(b []byte, plainBits int, packed bool) (l batch.Layout, count int, body []byte, err error) {
	var s, n, cts uint64
	if s, b, err = flnet.ReadUvarint(b); err == nil {
		if n, body, err = flnet.ReadUvarint(b); err == nil {
			cts, _, err = flnet.ReadUvarint(body)
		}
	}
	if err != nil {
		return batch.Layout{}, 0, nil, fmt.Errorf("%w: request header: %w", ErrSlotCorrupt, err)
	}
	if l, err = strideLayout(plainBits, int(min(s, math.MaxInt32)), packed); err != nil {
		return batch.Layout{}, 0, nil, err
	}
	// A count past len(body)·per can be no batch's; below it int(n) is exact.
	if n < 1 || n > uint64(len(body)*l.Per()) || uint64(l.Plaintexts(int(n))) != cts {
		return batch.Layout{}, 0, nil, fmt.Errorf("%w: %w: %d values in %d ciphertexts of %d",
			ErrSlotCorrupt, batch.ErrCount, n, cts, l.Per())
	}
	return l, int(n), body, nil
}

// openRequest is the decryptor's side of a return-path request: the
// ciphertexts it decoded, decrypted once each and split in the layout and
// value count the request names.
func (h *Holder) openRequest(b []byte) ([]uint64, error) {
	c := h.ctx
	l, count, body, err := parseRequest(b, c.plainBits(), c.Profile.UseBatch())
	if err != nil {
		return nil, err
	}
	cts, err := c.DecodeCiphertexts(body)
	if err != nil {
		return nil, fmt.Errorf("fl: return-path request: %w", err)
	}
	vals, err := h.decryptSlots(cts, count, l)
	ReleaseCiphertexts(cts)
	return vals, err
}

// ErrMisrouted reports a vertical exchange whose destination received a
// message from another sender, or of another kind, than the one sent.
var ErrMisrouted = errors.New("fl: vertical message misrouted")

// exchange is the one path a vertical message takes: payload, a frame of the
// arena's, is delivered from one party to another on tr (deliver, which
// charges its WireSize) and received at its destination, which must read it
// from that sender and of that kind (ErrMisrouted), decodes it and hands the
// frame back to the arena. It returns what the destination decoded. A frame
// that was not delivered goes back to the arena here.
func exchange[T any](c *Context, tr flnet.Transport, from, to, kind string, payload []byte, decode func([]byte) (T, error)) (got T, err error) {
	if err = c.deliver(tr, flnet.Message{From: from, To: to, Kind: kind, Payload: payload}); err != nil {
		releaseFrame(payload)
		return got, fmt.Errorf("fl: %s from %s to %s: %w", kind, from, to, err)
	}
	msg, err := tr.RecvTimeout(to, -1) // delivered, so already queued
	if err != nil {
		return got, fmt.Errorf("fl: %s at %s: %w", kind, to, err)
	}
	if msg.From != from || msg.Kind != kind {
		return got, fmt.Errorf("%w: %s received %q from %s, sent %q from %s", ErrMisrouted, to, msg.Kind, msg.From, kind, from)
	}
	got, err = decode(msg.Payload)
	releaseFrame(msg.Payload)
	return got, err
}

// SendCiphertexts is the ciphertext exchange of the vertical protocols: cts
// framed as flnet.AppendNats frames them, exchanged from p to party `to` on
// tr, and decoded at the destination into a batch of paillier's pool — the
// receiver's copy, which it returns and whoever retires it hands back with
// ReleaseCiphertexts. cts stay the caller's.
func (p *Party) SendCiphertexts(tr flnet.Transport, to, kind string, cts []paillier.Ciphertext) ([]paillier.Ciphertext, error) {
	return exchange(p.ctx, tr, p.Name, to, kind, frameCiphertexts(nil, cts), p.ctx.DecodeCiphertexts)
}

// SendValues is the plaintext exchange of the vertical protocols: vals as
// fixed-width little-endian uint64s (flnet.AppendUint64s; a float travels as
// its math.Float64bits), exchanged from p to party `to` on tr and decoded at
// the destination, exactly len(vals) of them, into vals' own array: the
// sender's copy is dead once framed, so what the caller holds afterwards is
// the receiver's.
func (p *Party) SendValues(tr flnet.Transport, to, kind string, vals []uint64) ([]uint64, error) {
	frame := flnet.AppendUint64s(arena.frames.Get(8 * len(vals))[:0], vals)
	return exchange(p.ctx, tr, p.Name, to, kind, frame, func(b []byte) ([]uint64, error) {
		return flnet.DecodeUint64sInto(vals, b, len(vals))
	})
}

// addCiphertexts is the charged pairwise homomorphic addition of two batches;
// it returns the sums and the modelled time it charged.
func (c *Context) addCiphertexts(a, b []paillier.Ciphertext) (sums []paillier.Ciphertext, sim time.Duration, err error) {
	sim, err = c.chargeHE(func() (int64, int64, error) {
		sums, err = c.Backend.AddVec(c.pub, a, b)
		return int64(len(a)), int64(len(a)), err
	})
	return sums, sim, err
}

// EncryptNats is the one public-key encryption batch: caller-prepared
// plaintexts encrypted under the context's public key, on the party's next
// nonce seed, as one charged HE batch with `instances` logical values on the
// throughput counter (callers that pack several values per plaintext pass
// the packed value count). EncryptGradients, EncryptBroadcast and
// BroadcastSums' empty sums all encrypt through it.
func (p *Party) EncryptNats(pts []mpint.Nat, instances int64) (cts []paillier.Ciphertext, err error) {
	c := p.ctx
	_, err = c.chargeHE(func() (int64, int64, error) {
		cts, err = c.Backend.EncryptVec(c.pub, pts, p.nonces.next())
		return int64(len(cts)), instances, err
	})
	return cts, err
}

// BroadcastSums computes k sparse integer combinations of the values a
// stride-s broadcast cts carries: out[j] encrypts Σ ±t.Weight·v[t.Index] over
// the terms t of sums[j] (the sign t.Neg's), plus ReturnOffset when signed,
// t.Index being a value's position in the broadcast — the homomorphic
// multiply-accumulate at the heart of the vertical gradient and histogram
// steps, every sum of a host's minibatch (or of a tree node's feature) in one
// charged HE batch: one kernel launch on the GPU profiles, the serial
// product-and-add loop on the CPU ones. Zero weights are no terms. The batch
// is charged once, with one HE operation and one instance a non-zero term: a
// ciphertext-scalar product.
//
// At s > 1 the batch computes the s inner sums of every sum, over the
// ciphertexts, and one ShiftPackVec launch folds them into the convolution T
// whose slot s−1 holds the sum (see the top of this file); an empty inner sum
// is the ciphertext 1 and folds in as the identity. The sum's mask and offset
// (crossMask, every mask of the call from one seed) enter the same launch as
// one more weight-1 term of the inner sum the fold does not shift: the
// trivial encryption 1 + P·n, which carries no nonce and needs none — the sum
// it joins carries its terms' nonces. At s = 1 a signed call's offset enters
// the same way, one base for all its sums.
//
// A sum without a non-zero term comes back as a fresh encryption of what it
// would open to, its mask and offset, so an empty sum on the wire looks like
// any other; those are encrypted together after the batch and draw one nonce
// seed, which no sum the models build reaches (they skip empty features and
// empty bins). A term that refers outside the broadcast rejects with
// mpint.ErrTermIndex before anything is launched, encrypted or charged; no
// sums are no work.
func (p *Party) BroadcastSums(cts []paillier.Ciphertext, sums [][]mpint.Term, s int, signed bool) ([]paillier.Ciphertext, error) {
	c := p.ctx
	l, err := c.layout(s)
	if err != nil {
		return nil, err
	}
	if err := mpint.CheckTerms(len(cts)*s, sums); err != nil {
		return nil, fmt.Errorf("fl: BroadcastSums: %w", err)
	}
	var offset uint64
	if signed {
		offset = ReturnOffset
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
	// triv are the trivial encryptions 1 + P·n, a batch of the pool's: a
	// sum's own at s > 1, one shared at s = 1 when signed, none otherwise;
	// emptyPts the P of each empty sum.
	var triv []paillier.Ciphertext
	var emptyPts []mpint.Nat
	if s > 1 || signed {
		var draw func() uint64
		n := 1
		if s > 1 {
			draw, n = mpint.NewRNG(p.nonces.next()).Word, len(sums)
		}
		triv = paillier.DrawBatch(n)
		defer ReleaseCiphertexts(triv)
		for j := range triv {
			c.mask = crossMask(c.mask, l, offset, draw)
			// A ciphertext's width of limbs, so that the batch goes back to the
			// pool as wide as the ones it is drawn with.
			triv[j].C = mpint.MulAddWordInto(mpint.Reuse(triv[j].C, len(c.pub.N2)), c.mask, c.pub.N, 1)
			if s > 1 && slices.Contains(empty, j) {
				emptyPts = append(emptyPts, c.mask.Clone())
			}
		}
		if s == 1 {
			for range empty {
				emptyPts = append(emptyPts, mpint.FromUint64(offset))
			}
		}
	}
	var out []paillier.Ciphertext
	if terms > 0 {
		bases, inner := cts, sums
		if triv != nil {
			c.bases = append(append(c.bases[:0], cts...), triv...)
			defer clear(c.bases)
			bases, inner = c.bases, c.innerSums(sums, s, len(cts))
			terms += int64(len(sums) - len(empty))
		}
		if _, err := c.chargeHE(func() (_, _ int64, err error) {
			out, err = c.Backend.WeightedSumVec(c.pub, bases, inner)
			return terms, terms, err
		}); err != nil {
			return nil, err
		}
		if s > 1 {
			conv, err := c.shiftPack(out, s, BroadcastSlotBits)
			if err != nil {
				return nil, err
			}
			ReleaseCiphertexts(out)
			out = conv
		}
	} else {
		out = make([]paillier.Ciphertext, len(sums))
	}
	if len(empty) > 0 {
		if emptyPts == nil {
			emptyPts = make([]mpint.Nat, len(empty))
		}
		fresh, err := p.EncryptNats(emptyPts, int64(len(empty)))
		if err != nil {
			return nil, err
		}
		for i, j := range empty {
			out[j] = fresh[i]
		}
	}
	return out, nil
}

// innerSums splits sums over a stride-s broadcast into the k·s sums over its
// ciphertexts: term (i, x) of sum j becomes term (⌊i/s⌋, x) of j's inner sum
// S_l, l = i mod s, and j's inner sums are laid out S_{s−1} … S_0, the order
// ShiftPackVec's Horner puts S_l in slot s−1−l. Every sum with a non-zero term
// also gets its trivial encryption — base triv + j at s > 1, the shared base
// triv at s = 1 — as a weight-1 term of S_{s−1}, the inner sum the fold leaves
// unshifted. The lists are the context's, reused from call to call.
func (c *Context) innerSums(sums [][]mpint.Term, s, triv int) [][]mpint.Term {
	c.inner = slices.Grow(c.inner[:0], len(sums)*s)[:len(sums)*s]
	for i := range c.inner {
		c.inner[i] = c.inner[i][:0]
	}
	for j, sum := range sums {
		live := false
		for _, t := range sum {
			at := j*s + s - 1 - t.Index%s
			c.inner[at] = append(c.inner[at], mpint.Term{Index: t.Index / s, Weight: t.Weight, Neg: t.Neg})
			live = live || t.Weight != 0
		}
		if live {
			at := triv
			if s > 1 {
				at += j
			}
			c.inner[j*s] = append(c.inner[j*s], mpint.Term{Index: at, Weight: 1})
		}
	}
	return c.inner
}
