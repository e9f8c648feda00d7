package fl

import (
	"flbooster/internal/batch"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
)

// Party is one identity on a Context: its name on the transports, the
// context's shared stack, and the nonce stream it encrypts on. A party
// encrypts under the public key and sends as itself — EncryptGradients,
// EncryptNats, EncryptBroadcast, BroadcastSums, SendCiphertexts, SendValues,
// OpenBroadcastSums — and cannot decrypt. Every party of a context draws from
// the context's one nonce stream, in program order, so which party runs an
// encryption never moves a nonce.
type Party struct {
	Name   string
	ctx    *Context
	nonces *nonceStream
}

// Holder is a Party that owns the private key: the one type that decrypts
// (DecryptAggregated, DecryptSlotSums, DecryptRaw, a return-path request, an
// aggregate frame), and the Fig. 2 client's upload wave encrypts under its
// key's holder handle (encryptUploads). Whether an operation uses the private
// key follows from the party's type, fixed when the party is built.
type Holder struct {
	Party
	key *paillier.PrivateKey
}

// nonceStream is the LCG every HE batch draws its nonce seed from, and its
// cursor.
type nonceStream struct{ cursor uint64 }

// next derives a fresh nonce-stream seed for one HE batch.
func (s *nonceStream) next() uint64 {
	s.cursor = s.cursor*6364136223846793005 + 1442695040888963407
	return s.cursor
}

// NewParty builds party name on c, drawing on c's nonce stream.
func (c *Context) NewParty(name string) *Party { return &Party{Name: name, ctx: c, nonces: &c.nonces} }

// NewHolder builds key-holding party name on c.
func (c *Context) NewHolder(name string) *Holder {
	return &Holder{Party: *c.NewParty(name), key: c.Key}
}

// Cursor returns the party's nonce-stream cursor: the state its next HE batch
// advances. Journaling it at round boundaries is what makes crash recovery
// bit-exact — a recovered coordinator restores it and every re-encrypted
// batch draws the nonce stream the lost attempt would have.
func (p *Party) Cursor() uint64 { return p.nonces.cursor }

// RestoreCursor rewinds (or fast-forwards) the party's nonce stream to a
// journaled position.
func (p *Party) RestoreCursor(cursor uint64) { p.nonces.cursor = cursor }

// decrypt is one charged decryption batch of cts under the holder's key, with
// count logical values on the throughput counter.
func (h *Holder) decrypt(cts []paillier.Ciphertext, count int) (pts []mpint.Nat, err error) {
	_, err = h.ctx.chargeHE(func() (int64, int64, error) {
		pts, err = h.ctx.Backend.DecryptVec(h.key, cts)
		return int64(len(cts)), int64(count), err
	})
	return pts, err
}

// DecryptAggregated runs the decryption phase (steps ⑤–⑨ of Fig. 4) for an
// aggregate of `parties` contributions carrying `count` gradient values.
func (h *Holder) DecryptAggregated(cts []paillier.Ciphertext, count, parties int) ([]float64, error) {
	pts, err := h.decrypt(cts, count)
	if err != nil {
		return nil, err
	}
	vals, err := h.ctx.Packer.DecodeAggregated(pts, count, parties)
	paillier.ReleasePlaintexts(pts)
	return vals, err
}

// DecryptRaw decrypts ciphertexts to raw unsigned plaintext values (no
// dequantization), one value per ciphertext — the return path with a single
// slot, and the reference OpenBroadcastSums at s = 1 is tested against.
func (h *Holder) DecryptRaw(cts []paillier.Ciphertext) ([]uint64, error) {
	l, _ := strideLayout(0, 1, false) // stride 1 unpacked: one value a plaintext
	return h.decryptSlots(cts, len(cts), l)
}

// DecryptSlotSums decrypts an aggregate of count values to the raw sum in
// each of its slots, the Packer's layout with no dequantisation: the
// aggregatable flow's key holder, whose reply the guest finishes
// (models.vertical.secureSum).
func (h *Holder) DecryptSlotSums(cts []paillier.Ciphertext, count int) ([]uint64, error) {
	return h.decryptSlots(cts, count, h.ctx.Packer.Layout())
}

// decryptSlots decrypts a return-path request declared to carry count values
// in layout l and splits the plaintexts back into the values.
func (h *Holder) decryptSlots(cts []paillier.Ciphertext, count int, l batch.Layout) ([]uint64, error) {
	pts, err := h.decrypt(cts, count)
	if err != nil {
		return nil, err
	}
	vals, err := splitReturn(pts, count, l)
	paillier.ReleasePlaintexts(pts)
	return vals, err
}
