package datasets

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// TestGenerateDigest pins every byte Generate produces — name, width, and each
// example's label, indices and values — for one dense and one sparse spec at
// seed 1. The digests were recorded before dense rows shared one index
// vector; never edit them.
func TestGenerateDigest(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{SyntheticSpec.Scaled(0.02), "d467b1ad555ca98456c2e38b6fccf5a1124a16ac527a44964e89e2693f842d65"},
		{RCV1Spec.Scaled(0.001), "bf7ea524178382843e64a3cb4da2fcb6f31b830745a05ac2d704bb5b3ebf9f64"},
	} {
		ds, err := Generate(tc.spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var word [8]byte
		put := func(x uint64) {
			binary.LittleEndian.PutUint64(word[:], x)
			h.Write(word[:])
		}
		h.Write([]byte(ds.Name))
		put(uint64(ds.NumFeatures))
		for _, ex := range ds.Examples {
			put(math.Float64bits(ex.Label))
			put(uint64(len(ex.Features.Idx)))
			for i, idx := range ex.Features.Idx {
				put(uint64(idx))
				put(math.Float64bits(ex.Features.Val[i]))
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.spec.Name, got, tc.want)
		}
	}
}
