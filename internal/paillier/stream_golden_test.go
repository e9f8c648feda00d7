package paillier

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
)

// TestEncryptVecStreamGoldens pins EncryptVec's ciphertexts — and with them the
// nonce stream every batch draws, keyed by (seed, item position) — against
// digests recorded on the three-launch lowering (rand_coprime_vec →
// pow_n_crt_vec / mod_exp_vec → mod_mul_vec): the twelve 512-bit and twelve
// 256-bit ciphertexts TestEncryptVecMatchesScalarOnEngineStream encrypts, and
// one 2,048-bit batch of 33 under the holder handle, one party's batch on the
// benchmark's headline workload. A ciphertext is the canonical residue of
// gᵐ·rⁿ mod n², so any other lowering of the same encryption must reproduce
// every row; never edit them.
func TestEncryptVecStreamGoldens(t *testing.T) {
	be := MustGPUBackend(ghe.MustEngine(gpu.MustNew(gpu.RTX3090(), true)))
	for _, g := range []struct {
		bits, width int
		holder      bool
		seed        uint64
		want        string
	}{
		{512, 12, false, 4242, "12:d5a333b2d308f756c34d9dddb99431356256cd6b18e21f249095e4a9770e3244"},
		{256, 12, false, 4242, "12:d243c16221ba48e9553e246d291c989ed5020119a7ffef656c3315ad7ef53ee2"},
		{2048, 33, true, 20261003, "33:d146aa40a771ac0a2a69488c6e67c045f0b94c697b030681262a44321f92dc5b"},
	} {
		sk := keyOfSize(t, g.bits)
		pk := &sk.PublicKey
		if g.holder {
			pk = sk.Holder()
		}
		cts, err := be.EncryptVec(pk, plaintexts(g.width, sk.N), g.seed)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var size [4]byte
		for _, c := range cts {
			raw := c.C.Bytes()
			binary.BigEndian.PutUint32(size[:], uint32(len(raw)))
			h.Write(size[:])
			h.Write(raw)
		}
		if got := fmt.Sprintf("%d:%x", len(cts), h.Sum(nil)); got != g.want {
			t.Errorf("%d bits × %d (holder %v): digest %s, parent recorded %s", g.bits, g.width, g.holder, got, g.want)
		}
	}
}
