package fl

import (
	"bytes"
	"testing"

	"flbooster/internal/flnet"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
)

func arenaCts(n int) []paillier.Ciphertext {
	rng := mpint.NewRNG(31)
	cts := make([]paillier.Ciphertext, n)
	for i := range cts {
		cts[i] = paillier.Ciphertext{C: rng.RandBits(256)}
	}
	return cts
}

// TestArenaCodecRoundtrip: the arena-backed codec is byte- and value-exact
// with the plain flnet framing, including across pool reuse cycles.
func TestArenaCodecRoundtrip(t *testing.T) {
	cts := arenaCts(9)
	nats := make([]mpint.Nat, len(cts))
	for i, c := range cts {
		nats[i] = c.C
	}
	want := flnet.EncodeNats(nats)
	for cycle := 0; cycle < 3; cycle++ {
		got := EncodeCiphertexts(cts)
		if !bytes.Equal(got, want) {
			t.Fatalf("cycle %d: arena encoding differs from plain codec", cycle)
		}
		dec, err := DecodeCiphertexts(got)
		if err != nil {
			t.Fatal(err)
		}
		if len(dec) != len(cts) {
			t.Fatalf("cycle %d: decoded %d ciphertexts, want %d", cycle, len(dec), len(cts))
		}
		for i := range dec {
			if mpint.Cmp(dec[i].C, cts[i].C) != 0 {
				t.Fatalf("cycle %d: ciphertext %d corrupted by pooling", cycle, i)
			}
		}
		ReleaseCiphertexts(dec)
	}
}
