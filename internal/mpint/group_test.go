package mpint

import (
	"fmt"
	"testing"
)

// walking runs fn with every group on the eight-lane walk, whatever its fill,
// or with none of them, and puts the rule back.
func walking(on bool, fn func()) {
	defer func(rule func(d, fill int) bool) { walkGroup = rule }(walkGroup)
	walkGroup = func(int, int) bool { return on }
	fn()
}

// groupFills is the lane counts a group test runs at a width of bits: every
// fill of one group, and below 4,096 bits a full group with a tail.
func groupFills(bits int) []int {
	fills := []int{1, 2, 3, 4, 5, 6, 7, 8, 11}
	if bits >= 4096 {
		return fills[:8]
	}
	return fills
}

// TestGroupsAreTheirLanes: a group of lanes — forced through the eight-lane
// walk at every fill from one to eight, and at eleven, a full group and a
// tail, where that is cheap — returns item by item what its operation returns one at a time, at
// moduli of 8, 16, 32 and 64 limbs: ExpSchedVec is ExpSched over one modulus
// and one schedule, bases at and past the modulus included; Rounds is Round
// over one test (the lanes share its schedule) and over a test a lane (each
// its own modulus and exponent, on fixed windows), and where the lanes' digit
// counts differ (a chain at a time); EncryptDrawVec is EncryptDraw, nonce
// draws and the generators after them included, and DecryptVec is Decrypt,
// through a factorisation whose squares are the modulus width; and
// EncryptNDrawVec is EncryptNDraw over an n² of the modulus width.
func TestGroupsAreTheirLanes(t *testing.T) {
	if !useIFMA {
		t.Skip("this CPU has no AVX-512 IFMA: every group runs its lanes one at a time")
	}
	r := NewRNG(0x6A0)
	for _, limbs := range []int{8, 16, 32, 64} {
		bits := 64 * limbs
		t.Run(fmt.Sprintf("%d limbs", limbs), func(t *testing.T) {
			n := randOdd(r, bits)
			m := NewMont(n)
			for _, e := range []Nat{r.RandBits(bits / 2), r.RandBits(30), FromUint64(2)} {
				s := CompileExpAuto(e)
				for _, fill := range groupFills(bits) {
					bases := make([]Nat, fill)
					for i := range bases {
						bases[i] = r.RandBelow(n)
					}
					bases[0] = Add(bases[0], n) // reduced first
					if fill > 2 {
						bases[2] = nil
					}
					got := make([]Nat, fill)
					walking(true, func() { m.ExpSchedVec(got, bases, s) })
					for i, b := range bases {
						if want := m.ExpSched(b, s); Cmp(got[i], want) != 0 {
							t.Fatalf("ExpSchedVec, %d-bit exponent, fill %d, lane %d: %s, ExpSched says %s", e.BitLen(), fill, i, got[i], want)
						}
					}
				}
			}
			checkRounds(t, r, bits)
			checkCRTGroups(t, r, bits)
			checkEncryptNGroups(t, r, bits)
		})
	}
}

// checkRounds holds Rounds to Round at every fill of one group, on bits-wide
// candidates: one shared test and a test a lane; and a full group whose last
// candidate is a digit longer than the rest.
func checkRounds(t *testing.T, r *RNG, bits int) {
	t.Helper()
	cand := func(i int) Nat {
		if bits <= 1024 && i%3 == 0 {
			return r.RandPrime(bits) // passes every base: the verdict's squarings run
		}
		return randOdd(r, bits)
	}
	shared := NewPrimeTest(cand(0))
	for _, fill := range groupFills(bits)[:8] {
		for _, shape := range []string{"shared", "own", "mixed widths"} {
			if shape == "mixed widths" && fill != 8 {
				continue
			}
			ts, as := make([]*PrimeTest, fill), make([]Nat, fill)
			for i := range ts {
				ts[i] = shared
				if shape != "shared" {
					ts[i] = NewPrimeTest(cand(i))
				}
			}
			if shape == "mixed widths" {
				ts[fill-1] = NewPrimeTest(randOdd(r, bits+digitBits))
			}
			for i, pt := range ts {
				as[i] = drawBase(r, pt.mont.n)
			}
			passed := make([]bool, fill)
			walking(true, func() { Rounds(ts, as, passed) })
			for i, pt := range ts {
				if want := pt.Round(as[i]); passed[i] != want {
					t.Fatalf("Rounds, %s, fill %d, lane %d: %v, Round says %v", shape, fill, i, passed[i], want)
				}
			}
		}
	}
}

// checkCRTGroups holds EncryptDrawVec and DecryptVec to EncryptDraw and
// Decrypt at every fill over factors of bits/2 bits: primes where they are
// cheap to draw, odd coprime values past that (the arithmetic does not ask).
func checkCRTGroups(t *testing.T, r *RNG, bits int) {
	t.Helper()
	var p, q Nat
	if bits <= 1024 {
		p, q = r.RandSafePrimePair(bits / 2)
	} else {
		for p == nil || !GCD(p, q).IsOne() {
			p, q = randOdd(r, bits/2), randOdd(r, bits/2)
		}
	}
	c, err := NewCRT(p, q)
	if err != nil {
		t.Fatal(err)
	}
	hp, hq := c.P().ToMont(r.RandBelow(p)), c.Q().ToMont(r.RandBelow(q))
	for _, fill := range groupFills(bits) {
		ms, seeds := make([]Nat, fill), make([]uint64, fill)
		group, alone := make([]*RNG, fill), make([]*RNG, fill)
		for i := range ms {
			ms[i], seeds[i] = r.RandBelow(c.N()), r.Uint64()
			group[i], alone[i] = NewRNG(seeds[i]), NewRNG(seeds[i])
		}
		cts, want := make([]Nat, fill), make([]Nat, fill)
		walking(true, func() { c.EncryptDrawVec(cts, ms, group) })
		walking(false, func() {
			for i := range ms {
				c.EncryptDrawVec(want[i:i+1], ms[i:i+1], alone[i:i+1]) // a group of one
			}
		})
		for i := range ms {
			if Cmp(cts[i], want[i]) != 0 || *group[i] != *alone[i] {
				t.Fatalf("EncryptDrawVec, fill %d, lane %d: %s, a lane alone says %s (generators equal: %v)", fill, i, cts[i], want[i], *group[i] == *alone[i])
			}
		}
		cts[0] = Add(cts[0], Mul(c.N(), c.N())) // reduced first
		pts := make([]Nat, fill)
		walking(true, func() { c.DecryptVec(pts, cts, hp, hq) })
		walking(false, func() {
			for i, x := range cts {
				want[i] = c.Decrypt(x, hp, hq)
			}
		})
		for i := range cts {
			if Cmp(pts[i], want[i]) != 0 {
				t.Fatalf("DecryptVec, fill %d, lane %d: %s, Decrypt says %s", fill, i, pts[i], want[i])
			}
		}
	}
}

// checkEncryptNGroups holds EncryptNDrawVec — a party without the
// factorisation, its lanes' rⁿ walking n's schedule over n² together — to
// each lane run as a group of one at every fill, over an n² of bits bits: the ciphertexts, the
// generators after the nonce draws, and the limbs a dead value hands in, which
// the ciphertext is written into. Plaintexts 0 and n−1 ride in lanes 0 and 1.
func checkEncryptNGroups(t *testing.T, r *RNG, bits int) {
	t.Helper()
	n := randOdd(r, bits/2)
	m, s := NewMont(Mul(n, n)), CompileExpAuto(n)
	for _, fill := range groupFills(bits) {
		ms, seeds := make([]Nat, fill), make([]uint64, fill)
		group, alone := make([]*RNG, fill), make([]*RNG, fill)
		for i := range ms {
			ms[i], seeds[i] = r.RandBelow(n), r.Uint64()
			group[i], alone[i] = NewRNG(seeds[i]), NewRNG(seeds[i])
		}
		ms[0] = nil
		if fill > 1 {
			ms[1] = SubWord(n, 1)
		}
		cts, want := make([]Nat, fill), make([]Nat, fill)
		dead := make(Nat, m.k)
		cts[fill-1] = dead
		walking(true, func() { m.EncryptNDrawVec(cts, ms, n, s, group) })
		walking(false, func() {
			for i := range ms {
				m.EncryptNDrawVec(want[i:i+1], ms[i:i+1], n, s, alone[i:i+1])
			}
		})
		for i := range ms {
			if Cmp(cts[i], want[i]) != 0 || *group[i] != *alone[i] {
				t.Fatalf("EncryptNDrawVec, fill %d, lane %d: %s, a lane alone says %s (generators equal: %v)", fill, i, cts[i], want[i], *group[i] == *alone[i])
			}
		}
		if &cts[fill-1][:1][0] != &dead[0] {
			t.Fatalf("EncryptNDrawVec, fill %d: the last ciphertext was not written into the limbs handed in", fill)
		}
	}
}
