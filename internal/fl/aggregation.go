package fl

import (
	"encoding/binary"
	"errors"
	"fmt"

	"flbooster/internal/flnet"
	"flbooster/internal/paillier"
)

// frameError marks an aggregate copy that failed to parse or contradicts the
// round's contributor count: the copy is bad, not the round, so a decryptor
// drops it and tries the next one. Every other openAggregate error is fatal
// to the round.
type frameError struct{ error }

func (e *frameError) Unwrap() error { return e.error }

// AggregateKind is the message kind an aggregate frame travels under. The
// frame starts with the contributor count K (see sealAggregate).
const AggregateKind = "agg"

// sealAggregate frames a round's root for every recipient: the contributor
// count K as a minimal uvarint, then the root's ciphertext vector — the
// sealed payload (framePayload). The root dies framed: the frame is bytes of
// its own.
func (c *Context) sealAggregate(k int, root []paillier.Ciphertext) []byte {
	frame := appendCiphertexts(newAggFrame(k, int(c.CiphertextWireBytes(len(root)))), root)
	paillier.ReleaseBatch(root)
	return frame
}

// newAggFrame starts an aggregate frame: the K prefix, with room for a
// payload of the given size behind it. The one place K is written — sealed
// frames and the frame a resumed coordinator rebuilds around its journaled
// payload both start here.
func newAggFrame(k, room int) []byte {
	return binary.AppendUvarint(make([]byte, 0, flnet.UvarintLen(uint64(k))+room), uint64(k))
}

// framePayload is the sealed payload of an aggregate frame the round built:
// what the journal holds and digests. K is not part of it — on replay it is
// len(Members).
func framePayload(frame []byte) []byte {
	_, n := binary.Uvarint(frame)
	return frame[n:]
}

// openAggregate is sealAggregate's inverse at a decrypting client: it reads K
// off the frame, decrypts the sum of K contributions and returns the
// full-federation estimate of `count` gradient values, scaled by Parties/K,
// with K.
//
// K is checked before anything is decrypted: it must lie in [1, Parties],
// and a decryptor that knows who contributed passes included and rejects a
// frame whose K is not len(included). A remote one that only has the frame
// passes nil.
func (h *Holder) openAggregate(frame []byte, count int, included []string) ([]float64, int, error) {
	c := h.ctx
	reject := func(format string, args ...any) ([]float64, int, error) {
		return nil, 0, &frameError{fmt.Errorf(format, args...)}
	}
	claimed, payload, err := flnet.ReadUvarint(frame)
	if err != nil {
		return reject("fl: aggregate frame's contributor count: %w", err)
	}
	if claimed < 1 || claimed > uint64(c.Profile.Parties) {
		return reject("fl: aggregate frame claims %d contributors of %d parties", claimed, c.Profile.Parties)
	}
	k := int(claimed)
	if included != nil && len(included) != k {
		return reject("fl: frame claims %d contributors, round included %d", k, len(included))
	}
	cts, err := c.DecodeCiphertexts(payload)
	if err != nil {
		return reject("%w", err)
	}
	sums, err := h.DecryptAggregated(cts, count, k)
	paillier.ReleaseBatch(cts) // decrypted or not, the batch is dead
	if err != nil {
		return nil, 0, err
	}
	if k < c.Profile.Parties {
		scale := float64(c.Profile.Parties) / float64(k)
		for i := range sums {
			sums[i] *= scale
		}
	}
	return sums, k, nil
}

// isFrameError reports whether err rejects one aggregate copy rather than
// the round.
func isFrameError(err error) bool {
	var fe *frameError
	return errors.As(err, &fe)
}
