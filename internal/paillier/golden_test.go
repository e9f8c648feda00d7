package paillier

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"flbooster/internal/flnet"
	"flbooster/internal/mpint"
)

// TestGoldenKeyAndCiphertextBytes pins, against digests recorded on the
// 32-bit-limb parent of the 64-bit-limb mpint rewrite, everything a seed
// determines on the way to the wire: the 256-bit key GenerateKey derives,
// one GPU-backend EncryptVec batch under it, the batch's flnet framing, and
// the plaintexts it decrypts to. A host-arithmetic change that moves any
// seeded value or any wire byte fails here. The batch's digest was recorded
// on the framing of its day, a uint32 count and each value behind a uint32
// length (recordedFraming), which still pins the values; the wire row was
// recorded when flnet's framing became a varint count and width and 12
// values of 64 bytes: 820 − 4 − 12·4 + 2 = 770 B.
func TestGoldenKeyAndCiphertextBytes(t *testing.T) {
	sk, err := hostSearchKey(mpint.NewRNG(20230403), 256)
	if err != nil {
		t.Fatal(err)
	}
	skBytes, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	be := singleBackend(t)
	rng := mpint.NewRNG(99)
	pts := []mpint.Nat{nil, mpint.One(), mpint.SubWord(sk.N, 1)}
	for len(pts) < 12 {
		pts = append(pts, rng.RandBelow(sk.N))
	}
	cts, err := be.EncryptVec(&sk.PublicKey, pts, 777)
	if err != nil {
		t.Fatal(err)
	}
	nats := make([]mpint.Nat, len(cts))
	for i, c := range cts {
		nats[i] = c.C
	}
	wire := flnet.AppendNats(nil, nats)
	back, err := be.DecryptVec(sk, cts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if mpint.Cmp(back[i], pts[i]) != 0 {
			t.Fatalf("plaintext %d decrypts to %s, want %s", i, back[i], pts[i])
		}
	}
	for _, pin := range []struct {
		name string
		got  []byte
		want string
	}{
		{"private key", skBytes, "77:84c22bd3c644f0d02438afc3c500e7fa043d64be465d7fe5fa5c0d8f0d8e054e"},
		{"ciphertexts", recordedFraming(nats), "820:a7563c5a9aeff28f3b9f819ef0b239b35657b2da4f3b587aa0aec4b1f9719dae"},
		{"ciphertext wire bytes", wire, "770:eebf0015a49e76411f3e2769bb566975eb4b76e97722784c68587428b210951e"},
	} {
		if got := fmt.Sprintf("%d:%x", len(pin.got), sha256.Sum256(pin.got)); got != pin.want {
			t.Errorf("%s digest %s, parent recorded %s", pin.name, got, pin.want)
		}
	}
}

// recordedFraming frames v as the wire did when the batch digest was
// recorded: a little-endian uint32 count, then each value as a uint32 length
// and its big-endian bytes, leading zeros left off.
func recordedFraming(v []mpint.Nat) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(v)))
	for _, x := range v {
		b = x.AppendBytes(binary.LittleEndian.AppendUint32(b, uint32((x.BitLen()+7)/8)))
	}
	return b
}
