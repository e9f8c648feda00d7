package models

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"flbooster/internal/fl"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
)

// openedHasher wraps a context's backend and hashes every ciphertext the key
// holder is asked to open, in order: the hosts' score folds and everything the
// return path (fl.Party.OpenBroadcastSums) carries — without batch
// compression the very ciphertexts it was handed, with it their packed image,
// which is a deterministic function of them. It embeds the interface, as the
// benchmark's traced backend does, so every other operation runs the wrapped
// backend's path.
type openedHasher struct {
	paillier.Backend
	h hash.Hash
	n int
}

func (b *openedHasher) DecryptVec(sk *paillier.PrivateKey, cs []paillier.Ciphertext) ([]mpint.Nat, error) {
	var size [4]byte
	for _, c := range cs {
		raw := c.C.Bytes()
		binary.BigEndian.PutUint32(size[:], uint32(len(raw)))
		b.h.Write(size[:])
		b.h.Write(raw)
	}
	b.n += len(cs)
	return b.Backend.DecryptVec(sk, cs)
}

// verticalGolden is one vertical model trained for two epochs (two trees)
// under one profile: the loss bits after each epoch, the traffic, and the
// fingerprint of every ciphertext opened on the way.
type verticalGolden struct {
	model  string
	sys    fl.System
	loss   [2]uint64
	bytes  int64
	msgs   int64
	opened int
	hash   string
}

// verticalGoldens were recorded on the arithmetic that lowered every
// homomorphic weighted sum to MulPlainVec plus a tree of AddVec launches, one
// sum at a time. Results of the homomorphic operations are canonical residues,
// so any other schedule of the same products must reproduce every row: the
// same losses to the last bit, the same messages, the same ciphertexts in
// front of the key holder. The Hetero LR and NN rows were re-recorded twice:
// their loss bits when the host's decode of a feature's two sign sides became
// one signed integer and one rounding (weightedSums.open), with bytes,
// messages, opened count and hash unmoved; then their bytes, opened count and
// hash when the return path began to carry one signed sum a feature, with
// every loss bit and message unmoved. The SBT rows never moved until the
// last two re-records. First the bytes of every row, when each message became
// a frame on a transport instead of a declared size, with every loss bit,
// message, opened count and hash unmoved. Each row's delta is 4 B a
// ciphertext frame (the batch's count), 8 B a return-path request under batch
// compression and 12 B one without (the 8-byte stride and value count, less
// the 4-byte count the packed requests declared), less the leading zero bytes
// the codec leaves off ciphertexts below 2^(8·(bytes−1)), which the declared
// sizes counted. Then the SBT rows' bytes and hash (48,245 → 48,220 and
// 138,280 → 138,244), when its (g, h) pair became the platform's quantizer
// and layout, with every loss bit, message and opened count unmoved: quant
// rounds to nearest where SBT's own quantizer truncated, which on a few
// near-tied nodes swaps a guest split for an equal host one, so one host
// `split` frame moves between trees, and the other bytes are leading zeros.
// Then the Hetero LR and NN rows' bytes, messages and hash, with
// packedGoldens', when the hosts' scores (activations) began to go straight
// to the arbiter and the guest to add its own quantized share to the hosts'
// raw slot sums (vertical.secureSum), with every loss bit and opened count
// unmoved. A minibatch lost one message, the guest's forward of the fold,
// whose frames are the bytes each row lost, less 1 B a score frame for its
// longer destination name and give or take the leading zeros the codec
// trims. The key holder now opens the hosts' fold, not every party's, which
// moved the hash. Then every row's bytes, with packedGoldens', when the wire
// framing became varints and one width a batch, with every loss bit, message,
// opened count and hash unmoved: a row's delta is 16 B a message (the 8-byte
// round stamp and three 4-byte string lengths became 4 one-byte varints), 2 B
// a ciphertext batch at 256 bits and 1 B at 1,024 (the 4-byte count became a
// 1-byte varint, beside a width varint of 1 B for 64-byte ciphertexts and 2
// for 256-byte ones; a count of 128 or more takes 2 B), 4 B a value (its
// length prefix) and 6 B a return-path request (the 8-byte stride and value
// count became two 1-byte varints), plus the leading zero bytes the old codec
// left off a value, which the batch's width now pads back (no batch here had
// every value below n²'s top byte).
var verticalGoldens = []verticalGolden{
	{"Hetero LR", fl.SystemFLBooster, [2]uint64{0x3fe1c9b99e3c3157, 0x3fde3ecd3940a0f5}, 30288, 52, 24, "15d8a8f3f9ca4e559918a8b429c5a148"},    // 28·4 + 12·8 − 1, then −993, then −16·52 − 2·36 − 4·432 − 6·12 + 6
	{"Hetero LR", fl.SystemHAFLO, [2]uint64{0x3fe1c9b99e3c3157, 0x3fde3ecd3940a0f5}, 53328, 52, 152, "03432ececfc595d2176d53e8b1f8aa96"},       // 28·4 + 12·12 − 5, then −8,882, then −16·52 − 2·36 − 4·792 − 6·12 + 11
	{"Hetero NN", fl.SystemFLBooster, [2]uint64{0x3fe51d8135d8e38f, 0x3fe3b7a91a690608}, 85652, 52, 52, "51dbfa70d8e9bb4a2d6ba37f47c790d7"},    // 28·4 + 12·8 − 20, then −2,063, then −16·52 − 2·36 − 4·1,260 − 6·12 + 15
	{"Hetero NN", fl.SystemHAFLO, [2]uint64{0x3fe51d8135d8e38f, 0x3fe3b7a91a690608}, 157076, 52, 456, "b34c7b8aa015167cc224bce7363d2ea7"},      // 28·4 + 12·12 − 43, then −26,268, then −16·52 − 2·36 − 4·2,376 − 6·12 + 35
	{"Hetero SBT", fl.SystemFLBooster, [2]uint64{0x3fe1c109591d82ef, 0x3fddaa5913612c52}, 43527, 101, 218, "e07f56faf587885c03e2b25a5ee1291f"}, // 6·4 + 84·8 − 14, then −25, then −16·101 − 2·90 − 4·602 − 6·84 + 15
	{"Hetero SBT", fl.SystemHAFLO, [2]uint64{0x3fe1c109591d82ef, 0x3fddaa5913612c52}, 128269, 101, 1158, "e3eefa3f0b652ae37bfa3c2b2a67e29f"},   // 6·4 + 84·12 − 11, then −36, then −16·101 − (2·90 − 6) − 4·1,926 − 6·84 + 23
}

// packedGoldens are Hetero LR and NN at 1,024 bits, where the packed
// profile's minibatches of 32 rows broadcast s = 5 values a ciphertext
// (fl.Context.BroadcastStride) and HAFLO's, without batch compression, one.
// The losses are the unpacked protocol's to the bit: every opened sum is the
// same integer. The Hetero NN rows were recorded with its deltas broadcast
// one a ciphertext under every profile; the FLBooster row's bytes, opened
// count and hash were re-recorded once, when the stride rule began to pick
// NN's broadcast too (s = 5 over its 96-row minibatches), with every loss
// bit and message unmoved. Every row's bytes were re-recorded with
// verticalGoldens', by the same rule: a packed request here is s = 5 at one
// value a ciphertext, which declared its 4-byte stride, so it gains 8 B too.
// Their bytes, messages and hash moved again with verticalGoldens' when the
// hosts' scores (activations) began to go straight to the arbiter, and their
// bytes alone when the framing became varints, by verticalGoldens' rule.
var packedGoldens = []verticalGolden{
	{"Hetero LR", fl.SystemFLBooster, [2]uint64{0x3fe1c9b99e3c3157, 0x3fde3ecd3940a0f5}, 33396, 52, 28, "1cdc313bb5340bc444068b3fcaba9cb0"}, // 28·4 + 12·8, then −1,212, then −16·52 − 36 − 4·120 − 6·12
	{"Hetero LR", fl.SystemHAFLO, [2]uint64{0x3fe1c9b99e3c3157, 0x3fde3ecd3940a0f5}, 205428, 52, 152, "2700f06e7976d4a4609e2e6f91076f50"},   // 28·4 + 12·12 − 6, then −33,451, then −16·52 − 36 − 4·792 − 6·12 + 5
	{"Hetero NN", fl.SystemFLBooster, [2]uint64{0x3fe51d8135d8e38f, 0x3fe3b7a91a690608}, 91064, 52, 80, "e2fc33b73a9524ecddcc2453214cc15c"}, // 28·4 + 12·8 − 1, then −2,243, then −16·52 − 36 − 4·336 − 6·12
	{"Hetero NN", fl.SystemHAFLO, [2]uint64{0x3fe51d8135d8e38f, 0x3fe3b7a91a690608}, 613304, 52, 456, "4795f5debae91e2a0fe6191a5d36e9e8"},   // 28·4 + 12·12 − 18, then −99,995, then −16·52 − 36 − 4·2,376 − 6·12 + 9
}

// TestVerticalGoldens holds the three vertical models to the recorded rows at
// 256-bit keys, where the packed profile's return path has three slots and
// the broadcast no room for a second residual, and Hetero LR and NN to their
// rows at 1,024 bits.
func TestVerticalGoldens(t *testing.T) {
	for _, want := range verticalGoldens {
		if got := runVerticalGolden(t, want.model, want.sys, returnKeyBits); got != want {
			t.Errorf("%s on %s:\n got %#v\nwant %#v", want.model, want.sys, got, want)
		}
	}
	if s := testCtxKey(t, fl.SystemFLBooster, returnKeyBits).BroadcastStride(32, []int{4, 4, 4}); s != 1 {
		t.Errorf("the packed profile broadcasts %d residuals a ciphertext at %d bits, want 1", s, returnKeyBits)
	}
	for _, want := range packedGoldens {
		if got := runVerticalGolden(t, want.model, want.sys, 1024); got != want {
			t.Errorf("%s on %s at 1,024 bits:\n got %#v\nwant %#v", want.model, want.sys, got, want)
		}
	}
}

// oracleGolden is one plaintext oracle (nil context) trained for three epochs
// on a party count: the loss bits after each epoch.
type oracleGolden struct {
	model   string
	parties int
	loss    [3]uint64
}

// oracleGoldens pin the oracles every convergence bias divides by
// (models.loss_bias, Table VII). They are what the encrypted protocols are
// measured against, so a refactor of the protocol skeleton must leave every
// bit of them where it was.
var oracleGoldens = []oracleGolden{
	{"Homo LR", 4, [3]uint64{0x3fe39dccbedb0439, 0x3fe1bcfb6c388d81, 0x3fe0509fb1517e85}},
	{"Homo LR", 1, [3]uint64{0x3fe1c9c6260c9b40, 0x3fde3ef3c1f1ea60, 0x3fdad7b9e1e302f5}},
	{"Hetero LR", 4, [3]uint64{0x3fe1c9c6260c9b40, 0x3fde3ef3c1f1ea60, 0x3fdad7b9e1e302f5}},
	{"Hetero LR", 1, [3]uint64{0x3fe1c9c6260c9b40, 0x3fde3ef3c1f1ea60, 0x3fdad7b9e1e302f5}},
	{"Hetero NN", 4, [3]uint64{0x3fe51db95e5ff26e, 0x3fe3b682e51721fb, 0x3fe2170d1f488750}},
	{"Hetero NN", 1, [3]uint64{0x3fe546161ffb7175, 0x3fe3e997b2268108, 0x3fe24d45415a3a59}},
	{"Hetero SBT", 4, [3]uint64{0x3fe1c109591d82ef, 0x3fddaa5913612c52, 0x3fd9a691eaaed9bd}},
	{"Hetero SBT", 1, [3]uint64{0x3fe1c109591d82ef, 0x3fddaa5913612c52, 0x3fd9a691eaaed9bd}},
}

// TestOracleGoldens holds the four plaintext oracles to their recorded loss
// bits at 4 parties and at 1.
func TestOracleGoldens(t *testing.T) {
	for _, want := range oracleGoldens {
		ds := denseData(t, 64, 8)
		opts := testOpts()
		opts.Parties = want.parties
		var (
			m   Model
			err error
		)
		switch want.model {
		case "Homo LR":
			m, err = NewHomoLR(nil, ds, opts)
		case "Hetero LR":
			m, err = NewHeteroLR(nil, ds, opts)
		case "Hetero NN":
			m, err = NewHeteroNN(nil, ds, 3, opts)
		case "Hetero SBT":
			m, err = NewHeteroSBT(nil, ds, opts)
		default:
			t.Fatalf("no model %q", want.model)
		}
		if err != nil {
			t.Fatal(err)
		}
		got := oracleGolden{model: want.model, parties: want.parties}
		for e := range got.loss {
			loss, err := m.TrainEpoch()
			if err != nil {
				t.Fatalf("%s oracle at %d parties, epoch %d: %v", want.model, want.parties, e, err)
			}
			got.loss[e] = math.Float64bits(loss)
		}
		if got != want {
			t.Errorf("%s oracle at %d parties:\n got %#v\nwant %#v", want.model, want.parties, got, want)
		}
	}
}

// runVerticalGolden trains one model for two epochs under one profile at a
// key size and returns the row it produced.
func runVerticalGolden(t *testing.T, model string, sys fl.System, keyBits int) verticalGolden {
	t.Helper()
	ctx := testCtxKey(t, sys, keyBits)
	rec := &openedHasher{Backend: ctx.Backend, h: sha256.New()}
	ctx.Backend = rec
	ds := denseData(t, 64, 8)
	var (
		m   Model
		err error
	)
	switch model {
	case "Hetero LR":
		m, err = NewHeteroLR(ctx, ds, testOpts())
	case "Hetero NN":
		m, err = NewHeteroNN(ctx, ds, 3, testOpts())
	case "Hetero SBT":
		m, err = NewHeteroSBT(ctx, ds, testOpts())
	default:
		t.Fatalf("no model %q", model)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer m.(interface{ Close() error }).Close()
	got := verticalGolden{model: model, sys: sys}
	for e := range got.loss {
		loss, err := m.TrainEpoch()
		if err != nil {
			t.Fatalf("%s on %s, epoch %d: %v", model, sys, e, err)
		}
		got.loss[e] = math.Float64bits(loss)
	}
	c := ctx.Costs.Snapshot()
	got.bytes, got.msgs = c.CommBytes, c.CommMsgs
	got.opened, got.hash = rec.n, hex.EncodeToString(rec.h.Sum(nil)[:16])
	return got
}
