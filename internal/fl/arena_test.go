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

// TestArenaCodecAllocs is the allocation regression guard for the round
// path's codec primitives: with a warm arena, encoding a batch costs exactly
// the payload buffer, and decoding costs only the per-value nat parses.
func TestArenaCodecAllocs(t *testing.T) {
	const n = 16
	cts := arenaCts(n)
	payload := EncodeCiphertexts(cts) // warm the nat pool

	if got := testing.AllocsPerRun(100, func() {
		EncodeCiphertexts(cts)
	}); got > 2 {
		t.Errorf("warm arena encode: %.1f allocs per batch, want <= 2", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		dec, err := DecodeCiphertexts(payload)
		if err != nil {
			t.Fatal(err)
		}
		ReleaseCiphertexts(dec)
	}); got > n+2 {
		t.Errorf("warm arena decode: %.1f allocs per batch, want <= %d", got, n+2)
	}
}
