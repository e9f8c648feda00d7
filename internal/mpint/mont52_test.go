package mpint

import (
	"math/big"
	"testing"
)

// TestChainCeiling holds the two ends of the rule that picks a chain's
// representation: a modulus one limb under ifmaMinLimbs and one a bit too long
// for amm52's registers stay on the rows, the ones just inside go to the
// digits, and all four exponentiate right.
func TestChainCeiling(t *testing.T) {
	if !useIFMA {
		t.Skip("this CPU has no AVX-512 IFMA: every chain is on the rows")
	}
	r := NewRNG(0xCE11)
	top := digitBits*maxLanes52 - 2 // the longest n with 2^(52·maxLanes52) ≥ 4n
	for _, tc := range []struct {
		bits   int
		digits bool
	}{
		{64 * (ifmaMinLimbs - 1), false},
		{64*(ifmaMinLimbs-1) + 1, true},
		{top, true},
		{top + 1, false},
	} {
		n := randOdd(r, tc.bits)
		m := NewMont(n)
		if f := m.ifma(); (f != nil) != tc.digits {
			t.Fatalf("%d-bit modulus: chain on the digits = %v, want %v", tc.bits, f != nil, tc.digits)
		} else if f != nil && (len(f.n) > maxLanes52 || len(f.n) < f.d) {
			t.Fatalf("%d-bit modulus: %d digits in %d lanes", tc.bits, f.d, len(f.n))
		}
		base, e := r.RandBelow(n), r.RandBits(40)
		want := new(big.Int).Exp(toBig(base), toBig(e), toBig(n))
		if got := m.Exp(base, e); toBig(got).Cmp(want) != 0 {
			t.Fatalf("%d-bit modulus: Exp mismatch", tc.bits)
		}
	}
}

// TestDigitsRoundTrip checks the two conversions against each other and
// against the digit arithmetic spelled out, at every alignment of a digit
// within a limb, and in every lane of a transposed group.
func TestDigitsRoundTrip(t *testing.T) {
	r := NewRNG(0xD161)
	for bits := 1; bits <= 64*21; bits += 13 {
		x := r.RandBits(bits)
		lanes := (bits + digitBits - 1) / digitBits
		d := make([]Word, lanes+2)
		toDigits(d, x, 1)
		v := toBig(x)
		for j, got := range d {
			want := new(big.Int).Rsh(v, uint(digitBits*j))
			if want.And(want, big.NewInt(digitMask)); got != want.Uint64() {
				t.Fatalf("%d bits: digit %d = %#x, want %#x", bits, j, got, want)
			}
		}
		z := make([]Word, len(x)+1)
		for i := range z {
			z[i] = ^Word(0) // fromDigits overwrites, it does not accumulate
		}
		if fromDigits(z, d, 1); Cmp(z, x) != 0 {
			t.Fatalf("%d bits: round trip %s → %s", bits, x, Nat(z))
		}
		group := make([]Word, groupLanes*len(d))
		for l := range groupLanes {
			toDigits(group[l:], x, groupLanes)
			for j, want := range d {
				if got := group[groupLanes*j+l]; got != want {
					t.Fatalf("%d bits, lane %d: digit %d = %#x, want %#x", bits, l, j, got, want)
				}
			}
			if fromDigits(z, group[l:], groupLanes); Cmp(z, x) != 0 {
				t.Fatalf("%d bits, lane %d: round trip %s → %s", bits, l, x, Nat(z))
			}
		}
	}
}
