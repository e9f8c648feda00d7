package mpint

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// Value pins recorded on the 32-bit-limb parent of the 64-bit-limb rewrite:
// the same seed must keep producing the same integers whatever the host limb
// width, or every key, nonce and ciphertext in the repo silently changes.

// pinHex renders a value for a golden table: its hex digits when short, the
// first 16 bytes of the SHA-256 of its big-endian bytes when long.
func pinHex(x Nat) string {
	b := x.Bytes()
	if len(b) <= 16 {
		return fmt.Sprintf("%x", b)
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("sha:%x", sum[:16])
}

var goldenRand = map[string]string{
	"RandBelow/0x1/1024":        "sha:06a3c34c3e5e3685be9fda28ccbe893d",
	"RandBelow/0x1/31":          "0fc710c5",
	"RandBelow/0x1/32":          "0fc710c5",
	"RandBelow/0x1/33":          "0fc710c5",
	"RandBelow/0x1/64":          "47364cea0fc710c5",
	"RandBelow/0x1/65":          "47364cea0fc710c5",
	"RandBelow/0xc0ffee/1024":   "sha:d0dd28224b0697beabec7078465ec78f",
	"RandBelow/0xc0ffee/31":     "0734f5d2",
	"RandBelow/0xc0ffee/32":     "7733d4b4",
	"RandBelow/0xc0ffee/33":     "dde4a550",
	"RandBelow/0xc0ffee/64":     "7733d4b4dde4a550",
	"RandBelow/0xc0ffee/65":     "017733d4b4dde4a550",
	"RandBits/0x1/1024":         "sha:06a3c34c3e5e3685be9fda28ccbe893d",
	"RandBits/0x1/31":           "4fc710c5",
	"RandBits/0x1/32":           "8fc710c5",
	"RandBits/0x1/33":           "010fc710c5",
	"RandBits/0x1/64":           "c7364cea0fc710c5",
	"RandBits/0x1/65":           "0147364cea0fc710c5",
	"RandBits/0xc0ffee/1024":    "sha:8f9cc174b3872a0535455a79e177b4b2",
	"RandBits/0xc0ffee/31":      "5de4a550",
	"RandBits/0xc0ffee/32":      "dde4a550",
	"RandBits/0xc0ffee/33":      "01dde4a550",
	"RandBits/0xc0ffee/64":      "f733d4b4dde4a550",
	"RandBits/0xc0ffee/65":      "017733d4b4dde4a550",
	"RandCoprime/0x1/1024":      "sha:06a3c34c3e5e3685be9fda28ccbe893d",
	"RandCoprime/0x1/31":        "4266a3a7",
	"RandCoprime/0x1/32":        "0fc710c5",
	"RandCoprime/0x1/33":        "0fc710c5",
	"RandCoprime/0x1/64":        "47364cea0fc710c5",
	"RandCoprime/0x1/65":        "0122087c8705219325",
	"RandCoprime/0xc0ffee/1024": "sha:14c8e56469cd143fb3e2d1bb58fa50fe",
	"RandCoprime/0xc0ffee/31":   "1cbe4e9b",
	"RandCoprime/0xc0ffee/32":   "1cbe4e9b",
	"RandCoprime/0xc0ffee/33":   "e4fd367b",
	"RandCoprime/0xc0ffee/64":   "8734f5d2e4fd367b",
	"RandCoprime/0xc0ffee/65":   "fd3797dca5b93ec9",
	"RandPrime/0x1/1024":        "sha:afdbe57873977764eebfa29f7b1144fb",
	"RandPrime/0x1/31":          "4fc710cb",
	"RandPrime/0x1/32":          "8fc710c9",
	"RandPrime/0x1/33":          "010fc710d7",
	"RandPrime/0x1/64":          "c7364cea0fc71121",
	"RandPrime/0x1/65":          "0147364cea0fc710d3",
	"RandPrime/0xc0ffee/1024":   "sha:35343cdbfd4715ca87baab46da9125a9",
	"RandPrime/0xc0ffee/31":     "5de4a555",
	"RandPrime/0xc0ffee/32":     "dde4a559",
	"RandPrime/0xc0ffee/33":     "01dde4a56b",
	"RandPrime/0xc0ffee/64":     "f733d4b4dde4a55d",
	"RandPrime/0xc0ffee/65":     "017733d4b4dde4a555",
}

func TestGoldenRandValues(t *testing.T) {
	for _, seed := range []uint64{1, 0xC0FFEE} {
		for _, bits := range []int{31, 32, 33, 64, 65, 1024} {
			// The bound comes from its own stream so the draws under test
			// start at the head of the seed's stream.
			bound := NewRNG(seed + 1000).RandBits(bits)
			got := map[string]Nat{
				"RandBits":    NewRNG(seed).RandBits(bits),
				"RandBelow":   NewRNG(seed).RandBelow(bound),
				"RandCoprime": NewRNG(seed).RandCoprime(bound),
				"RandPrime":   NewRNG(seed).RandPrime(bits),
			}
			for fn, v := range got {
				key := fmt.Sprintf("%s/%#x/%d", fn, seed, bits)
				if want := goldenRand[key]; pinHex(v) != want {
					t.Errorf("%s = %s, parent recorded %s", key, pinHex(v), want)
				}
			}
		}
	}
}
