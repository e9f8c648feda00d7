package fl

import (
	"errors"
	"fmt"

	"flbooster/internal/flnet"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
	"flbooster/internal/pool"
)

// wireArena pools what the round path allocates a round and drops inside it
// (DESIGN §15). Ciphertext batches go to paillier's pool (paillier.ReleaseBatch);
// the arena holds the two kinds of []Nat the round builds and its ciphertext
// frames:
//   - nats: the wire codec's scratch views, whose values alias live
//     ciphertexts and are dropped on the way back, never reused;
//   - plain: plaintext batches, the encoded gradients, their values' limbs
//     kept (zeroed) for the next encoding;
//   - frames: every ciphertext frame, drawn by frameCiphertexts: an upload's,
//     handed back by the coordinator that decoded it (Round.Gather), and a
//     vertical message's, handed back by the party that read it (exchange).
//
// An upload frame has one owner at a time. Send hands an upload's payload to
// the transport, and the coordinator that decodes it owns it from then on: a
// transport or wrapper that keeps a payload after delivering it must keep a
// copy. Gather releases a payload only once DecodeCiphertexts has read it,
// and never a stale or duplicate frame's, which it judges by header: a
// duplicate may share its original's bytes. The aggregate frame is not
// pooled: every recipient of the broadcast shares it, and the journal keeps
// its payload.
type wireArena struct {
	nats, plain pool.Slices[mpint.Nat]
	frames      pool.Slices[byte]
}

// arena is shared by every federation and aggregation in the process; the
// pools are safe for concurrent use.
var arena wireArena

// frameCiphertexts frames cts behind head as appendCiphertexts frames them,
// into a frame drawn from the arena by pool.Slices.Get: a dead frame of the
// size's class, or fresh bytes as wide as the class's widest. Every
// ciphertext frame — an upload, a vertical message — is framed here. A frame
// that comes back (Round.Gather's, exchange's) is framed into again; one that
// never does (a TCP client's upload, a frame a chaos transport drops) costs
// one class-wide allocation, under twice its length.
func frameCiphertexts(head []byte, cts []paillier.Ciphertext) []byte {
	nats := natsOf(cts)
	frame := arena.frames.Get(len(head) + flnet.NatsSize(nats))[:0]
	frame = flnet.AppendNats(append(frame, head...), nats)
	arena.putNats(nats)
	return frame
}

// releaseFrame hands back a frame its receiver has decoded; the next message
// is framed into it. Releasing zeroes it, so a read after the release reads
// zeroes, not the next message's bytes.
func releaseFrame(frame []byte) {
	clear(frame[:cap(frame)])
	arena.frames.Put(frame)
}

// appendCiphertexts appends the wire framing of cts to dst: flnet.AppendNats
// of their values.
func appendCiphertexts(dst []byte, cts []paillier.Ciphertext) []byte {
	nats := natsOf(cts)
	dst = flnet.AppendNats(dst, nats)
	arena.putNats(nats)
	return dst
}

// natsOf views cts' values in the arena's scratch, handed back by putNats.
func natsOf(cts []paillier.Ciphertext) []mpint.Nat {
	nats := arena.getNats(len(cts))
	for _, c := range cts {
		nats = append(nats, c.C)
	}
	return nats
}

// ErrBadCiphertext rejects a batch with a value no ciphertext of the
// context's key can be: wider than n², 0, or n² and above. Every batch a
// party decodes is another party's bytes, and the HE kernels take residues
// mod n² on trust.
var ErrBadCiphertext = errors.New("fl: not a ciphertext of the key")

// DecodeCiphertexts parses a batch framed by appendCiphertexts into a batch
// drawn from paillier's pool, each value into a dead one's limbs; whoever
// retires the batch hands it back with paillier.ReleaseBatch. A value outside
// [1, n²) is ErrBadCiphertext, and so is any batch wider than the key's
// ciphertexts: its widest value is as wide as the batch, so at least n². A
// malformed batch is flnet.ErrMalformed.
func (c *Context) DecodeCiphertexts(b []byte) ([]paillier.Ciphertext, error) {
	// A size hint only: DecodeNatsInto checks the count against the body.
	n, rest, _ := flnet.ReadUvarint(b)
	cts := paillier.DrawBatch(int(min(n, uint64(len(rest))/4)))
	scratch := arena.nats.Get(len(cts))
	for i, ct := range cts {
		scratch[i] = ct.C
	}
	nats, err := flnet.DecodeNatsInto(scratch, b)
	for i, x := range nats { // a valid count is the hint
		if x.IsZero() || mpint.Cmp(x, c.pub.N2) >= 0 {
			err = fmt.Errorf("%w: value %d is 0 or at least n²", ErrBadCiphertext, i)
			break
		}
		cts[i].C = x
	}
	arena.putNats(scratch)
	if err != nil {
		paillier.ReleaseBatch(cts)
		return nil, err
	}
	return cts, nil
}

// putPlain takes back a dead plaintext batch, its values' limbs zeroed and
// kept for the next encoding.
func (a *wireArena) putPlain(pts []mpint.Nat) {
	full := pts[:cap(pts)]
	for i, x := range full {
		clear(x[:cap(x)])
		full[i] = x[:0]
	}
	a.plain.Put(pts)
}

// getPlain returns an empty plaintext batch with room for n, dead values'
// limbs behind it where the arena has some (mpint.Spare).
func (a *wireArena) getPlain(n int) []mpint.Nat { return a.plain.Get(n)[:0] }

// getNats returns an empty view scratch with room for n.
func (a *wireArena) getNats(n int) []mpint.Nat { return a.nats.Get(n)[:0] }

// putNats drops every view the scratch held, up to its capacity: a decode
// writes into the values its scratch's capacity holds, which must never be a
// live ciphertext.
func (a *wireArena) putNats(s []mpint.Nat) {
	clear(s[:cap(s)])
	a.nats.Put(s)
}
