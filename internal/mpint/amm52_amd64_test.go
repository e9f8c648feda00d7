package mpint

import (
	"bytes"
	"math/big"
	"slices"
	"testing"
)

// digitsToBig is Σ x[j]·2^(52j), whatever the lanes hold.
func digitsToBig(x []Word) *big.Int {
	v := new(big.Int)
	for j := len(x) - 1; j >= 0; j-- {
		v.Lsh(v, digitBits).Add(v, new(big.Int).SetUint64(x[j]))
	}
	return v
}

// checkAMM52 holds amm52 on d digits to math/big: for a, b < 2n and n odd
// below 2^(52d−2), the product is a·b·2^(−52d) mod n, below 2n, every digit
// below 2⁵², whether the destination is its own buffer, a, b, or (a = b) both.
// The operands sit `lead` words into slabs whose words on both sides — and
// every operand the destination does not alias — must come back untouched;
// lead also walks the buffers across every alignment a ZMM load can have.
func checkAMM52(t *testing.T, d int, n, a, b *big.Int, lead int) {
	t.Helper()
	const guard = 0xA5A5A5A5A5A5A5A5
	lanes := (d + 7) &^ 7
	if lanes < 16 {
		lanes = 16
	}
	slab := func(v *big.Int) []Word {
		s := make([]Word, lead+lanes+3)
		for i := range s {
			s[i] = guard
		}
		toDigits(s[lead:lead+lanes], fromBig(v), 1)
		return s
	}
	r := new(big.Int).Lsh(big.NewInt(1), uint(digitBits*d))
	want := new(big.Int).Mul(a, b)
	want.Mul(want, new(big.Int).ModInverse(r, n)).Mod(want, n)
	twoN := new(big.Int).Lsh(n, 1)
	k0 := negInvWord(fromBig(n)[0]) & digitMask
	for _, alias := range []string{"none", "a", "b", "both"} {
		if alias == "both" && a.Cmp(b) != 0 {
			continue
		}
		ns, as, bs, zs := slab(n), slab(a), slab(b), slab(new(big.Int))
		nd, ad, bd, zd := ns[lead:lead+lanes], as[lead:lead+lanes], bs[lead:lead+lanes], zs[lead:lead+lanes]
		switch alias {
		case "a":
			zs, zd = as, ad
		case "b":
			zs, zd = bs, bd
		case "both":
			zs, zd, bs, bd = as, ad, as, ad
		}
		amm52(zd, ad, bd, nd, d, k0)
		got := digitsToBig(zd)
		if got.Cmp(twoN) >= 0 || new(big.Int).Mod(got, n).Cmp(want) != 0 {
			t.Fatalf("d=%d alias=%s: amm52(%x, %x) mod %x = %x, want %x (mod n) below 2n", d, alias, a, b, n, got, want)
		}
		for j, v := range zd {
			if v > digitMask {
				t.Fatalf("d=%d alias=%s: digit %d = %#x is not normalised", d, alias, j, v)
			}
		}
		for name, s := range map[string][]Word{"n": ns, "a": as, "b": bs, "z": zs} {
			for i, v := range s {
				if inside := i >= lead && i < lead+lanes; !inside && v != guard {
					t.Fatalf("d=%d alias=%s: wrote outside %s (slab word %d)", d, alias, name, i)
				}
			}
		}
		for name, p := range map[string]struct {
			s []Word
			v *big.Int
		}{"n": {nd, n}, "a": {ad, a}, "b": {bd, b}} {
			if &p.s[0] != &zd[0] && digitsToBig(p.s).Cmp(p.v) != 0 {
				t.Fatalf("d=%d alias=%s: operand %s changed", d, alias, name)
			}
		}
	}
}

// amm52Operands shapes fuzz bytes into what checkAMM52 takes: an odd modulus
// ≥ 3 below 2^(52d−2) and two operands below twice it.
func amm52Operands(d int, nb, ab, bb []byte) (n, a, b *big.Int) {
	n = new(big.Int).SetBytes(nb)
	n.Mod(n, new(big.Int).Lsh(big.NewInt(1), uint(digitBits*d-2)))
	n.SetBit(n, 0, 1)
	if n.Cmp(big.NewInt(3)) < 0 {
		n.SetInt64(3)
	}
	twoN := new(big.Int).Lsh(n, 1)
	a = new(big.Int).SetBytes(ab)
	b = new(big.Int).SetBytes(bb)
	return n, a.Mod(a, twoN), b.Mod(b, twoN)
}

// TestAMM52 sweeps every digit count the kernel takes — each chunk count with
// each number of idle lanes in its top chunk — on all-ones, sparse and random
// operands. All-ones limbs make n ≡ −1 (k0 = 1) and put every digit of a, b
// and n at 2⁵²−1, the most a lane can gain a pass: at the largest d that is the
// deferred-carry bound exercised, not argued.
func TestAMM52(t *testing.T) {
	if !useIFMA {
		t.Skip("this CPU has no AVX-512 IFMA")
	}
	r := NewRNG(0x52)
	ones := bytes.Repeat([]byte{0xFF}, maxLanes52*digitBits/8)
	for d := 1; d <= maxLanes52; d++ {
		random := func() []byte { return r.RandBits(digitBits * d).Bytes() }
		for _, tc := range [][3][]byte{
			{ones, ones, ones},
			{ones, {0}, ones}, // a = 0: the low digit never carries
			{ones, {1}, {1}},  // one row of work, then reduction alone
			{{3}, ones, ones}, // the least modulus in the widest lanes
			{append([]byte{0x40}, make([]byte, (digitBits*d-9)/8)...), ones, ones}, // n = 2^j + 1: k0 = 2⁵²−1
			{random(), random(), random()},
		} {
			n, a, b := amm52Operands(d, tc[0], tc[1], tc[2])
			checkAMM52(t, d, n, a, b, d%8)
			checkAMM52(t, d, n, a, a, 0)
		}
	}
}

func FuzzAMM52(f *testing.F) {
	if !useIFMA {
		f.Skip("this CPU has no AVX-512 IFMA")
	}
	f.Fuzz(func(t *testing.T, nb, ab, bb []byte, digits, lead uint8) {
		d := 1 + int(digits)%maxLanes52
		n, a, b := amm52Operands(d, nb, ab, bb)
		checkAMM52(t, d, n, a, b, int(lead)%8)
	})
}

// laneToBig is the value of lane l of transposed normalised digits (fromDigits
// is held to math/big on its own, TestDigitsRoundTrip).
func laneToBig(x []Word, l int) *big.Int {
	z := make([]Word, (len(x)/groupLanes*digitBits+WordBits-1)/WordBits)
	fromDigits(z, x[l:], groupLanes)
	return toBig(z)
}

// checkAMM52x8 holds amm52x8 on d digits to math/big lane by lane: for each
// lane l, odd n_l below 2^(52d−2) and a_l, b_l < 2n_l, lane l of the product
// is a_l·b_l·2^(−52d) mod n_l, below 2n_l, every digit below 2⁵², whether the
// destination is its own buffer, a, b, or (a = b) both. The transposed
// operands and the kernel's scratch sit `lead` words into slabs whose words
// on both sides — and every operand the destination does not alias — must
// come back untouched.
func checkAMM52x8(t *testing.T, d int, ns, as, bs *[groupLanes]*big.Int, lead int) {
	t.Helper()
	const guard = 0xA5A5A5A5A5A5A5A5
	w := groupLanes * d
	slab := func(n int) []Word {
		s := make([]Word, lead+n+3)
		for i := range s {
			s[i] = guard
		}
		return s
	}
	transposed := func(vs *[groupLanes]*big.Int) []Word {
		s := slab(w)
		for l, v := range vs {
			toDigits(s[lead+l:lead+w], fromBig(v), groupLanes)
		}
		return s
	}
	same := true
	var k0 [groupLanes]Word
	var want [groupLanes]*big.Int
	r := new(big.Int).Lsh(big.NewInt(1), uint(digitBits*d))
	for l := range groupLanes {
		k0[l] = negInvWord(fromBig(ns[l])[0]) & digitMask
		same = same && as[l].Cmp(bs[l]) == 0
		want[l] = new(big.Int).Mul(as[l], bs[l])
		want[l].Mul(want[l], new(big.Int).ModInverse(r, ns[l])).Mod(want[l], ns[l])
	}
	for _, alias := range []string{"none", "a", "b", "both"} {
		if alias == "both" && !same {
			continue
		}
		ns8, as8, bs8, zs, ts := transposed(ns), transposed(as), transposed(bs), slab(w), slab(2*w)
		nd, ad, bd, zd := ns8[lead:lead+w], as8[lead:lead+w], bs8[lead:lead+w], zs[lead:lead+w]
		switch alias {
		case "a":
			zs, zd = as8, ad
		case "b":
			zs, zd = bs8, bd
		case "both":
			zs, zd, bs8, bd = as8, ad, as8, ad
		}
		amm52x8(zd, ad, bd, nd, ts[lead:lead+2*w], &k0, d)
		for l := range groupLanes {
			for j := l; j < w; j += groupLanes {
				if zd[j] > digitMask {
					t.Fatalf("d=%d alias=%s lane %d: digit %d = %#x is not normalised", d, alias, l, j/groupLanes, zd[j])
				}
			}
			got := laneToBig(zd, l)
			if got.Cmp(new(big.Int).Lsh(ns[l], 1)) >= 0 || new(big.Int).Mod(got, ns[l]).Cmp(want[l]) != 0 {
				t.Fatalf("d=%d alias=%s lane %d: amm52x8(%x, %x) mod %x = %x, want %x (mod n) below 2n", d, alias, l, as[l], bs[l], ns[l], got, want[l])
			}
		}
		for name, s := range map[string][]Word{"n": ns8, "a": as8, "b": bs8, "z": zs, "t": ts} {
			for i, v := range s {
				if inside := i >= lead && i < len(s)-3; !inside && v != guard {
					t.Fatalf("d=%d alias=%s: wrote outside %s (slab word %d)", d, alias, name, i)
				}
			}
		}
		for name, p := range map[string]struct {
			s  []Word
			vs *[groupLanes]*big.Int
		}{"n": {nd, ns}, "a": {ad, as}, "b": {bd, bs}} {
			if &p.s[0] == &zd[0] {
				continue
			}
			for l, v := range p.vs {
				if laneToBig(p.s, l).Cmp(v) != 0 {
					t.Fatalf("d=%d alias=%s: operand %s changed in lane %d", d, alias, name, l)
				}
			}
		}
	}
}

// amm52x8Operands shapes fuzz bytes into eight lanes of amm52Operands, lane l
// with the byte 37·l appended to each input, so that no two lanes share a
// modulus or an operand.
func amm52x8Operands(d int, nb, ab, bb []byte) (ns, as, bs [groupLanes]*big.Int) {
	for l := range groupLanes {
		tag := byte(37 * l)
		ns[l], as[l], bs[l] = amm52Operands(d, append(slices.Clone(nb), tag), append(slices.Clone(ab), tag), append(slices.Clone(bb), tag))
	}
	return ns, as, bs
}

// TestAMM52x8 sweeps every digit count from the kernel's least, 2, to the
// widest modulus a context takes — so every pass shape of its loop, the
// four-position passes and each tail — with a different operand shape in each
// lane of one group: all ones, which put every digit at 2⁵²−1, the most a
// position can gain a row, so at 208 digits the deferred-carry bound is
// exercised, not argued; a zero operand; the least modulus, 3, in the widest
// lanes; n = 2^j + 1, whose k0 is 2⁵²−1; random values in the other four; and
// the same shapes squared.
func TestAMM52x8(t *testing.T) {
	if !useIFMA {
		t.Skip("this CPU has no AVX-512 IFMA")
	}
	r := NewRNG(0x528)
	ones := bytes.Repeat([]byte{0xFF}, maxLanes52*digitBits/8)
	for d := 2; d <= maxLanes52; d++ {
		random := func() []byte { return r.RandBits(digitBits * d).Bytes() }
		var ns, as, bs [groupLanes]*big.Int
		for l, tc := range [groupLanes][3][]byte{
			{ones, ones, ones},
			{ones, {0}, ones},
			{{3}, ones, ones},
			{append([]byte{0x40}, make([]byte, (digitBits*d-9)/8)...), ones, ones},
			{random(), random(), random()},
			{random(), random(), random()},
			{random(), random(), random()},
			{random(), random(), random()},
		} {
			ns[l], as[l], bs[l] = amm52Operands(d, tc[0], tc[1], tc[2])
		}
		checkAMM52x8(t, d, &ns, &as, &bs, d%8)
		checkAMM52x8(t, d, &ns, &as, &as, 0)
	}
}

func FuzzAMM52x8(f *testing.F) {
	if !useIFMA {
		f.Skip("this CPU has no AVX-512 IFMA")
	}
	f.Fuzz(func(t *testing.T, nb, ab, bb []byte, digits, lead uint8) {
		d := 2 + int(digits)%(maxLanes52-1)
		ns, as, bs := amm52x8Operands(d, nb, ab, bb)
		checkAMM52x8(t, d, &ns, &as, &bs, int(lead)%8)
	})
}
