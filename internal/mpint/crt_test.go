package mpint

import (
	"math/big"
	"testing"
)

// checkCRT compares every CRT operation on (p, q) against math/big for the
// given x; p and q must be distinct odd primes.
func checkCRT(t *testing.T, c *CRT, p, q, x Nat) {
	t.Helper()
	bp, bq := toBig(p), toBig(q)
	n := new(big.Int).Mul(bp, bq)
	n2 := new(big.Int).Mul(n, n)
	want := new(big.Int).Exp(toBig(x), n, n2)
	// Encrypt: the whole ciphertext against the textbook expression, for the
	// plaintexts at both ends of the range — 0, whose ciphertext is the noise
	// term xⁿ mod n² alone — one in the middle, and x itself unreduced (a
	// plaintext never is; the arithmetic must not care) — and the same nonce
	// through the n² window, the route of a party without the factorisation.
	one := big.NewInt(1)
	mn2 := NewMont(fromBig(n2))
	sched := CompileExpAuto(c.N())
	for _, m := range []*big.Int{new(big.Int), new(big.Int).Sub(n, one), new(big.Int).Mod(want, n), toBig(x)} {
		ct := new(big.Int).Mul(m, n)
		ct.Mod(ct.Mul(ct.Add(ct, one), want), n2)
		if got := c.Encrypt(fromBig(m), x); toBig(got).Cmp(ct) != 0 || len(got) != len(trim(got)) {
			t.Fatalf("Encrypt(%s, %s) with p=%s q=%s = %s, math/big says %s", m, x, p, q, got, ct)
		}
		if m.Cmp(n) >= 0 {
			continue
		}
		if got := mn2.EncryptN(fromBig(m), x, c.N(), sched); toBig(got).Cmp(ct) != 0 || len(got) != len(trim(got)) {
			t.Fatalf("EncryptN(%s, %s) mod (%s·%s)² = %s, math/big says %s", m, x, p, q, got, ct)
		}
	}
	// Decrypt, for constants that need not be a key's: per prime s the residue
	// is floor((x^(s−1) mod s² − 1)/s)·h_s mod s, zero where s² divides x.
	hp, hq := new(big.Int).Add(new(big.Int).Rsh(bp, 1), one), new(big.Int).Sub(bq, one)
	logPow := func(s, h *big.Int) *big.Int {
		y := new(big.Int).Exp(toBig(x), new(big.Int).Sub(s, one), new(big.Int).Mul(s, s))
		if y.Sign() > 0 {
			y.Quo(y.Sub(y, one), s)
		}
		return y.Mod(y.Mul(y, h), s)
	}
	mp, mq := logPow(bp, hp), logPow(bq, hq)
	m := c.Decrypt(x, c.P().ToMont(fromBig(hp)), c.Q().ToMont(fromBig(hq)))
	bm := toBig(m)
	if bm.Cmp(n) >= 0 || new(big.Int).Mod(bm, bp).Cmp(mp) != 0 || new(big.Int).Mod(bm, bq).Cmp(mq) != 0 || len(m) != len(trim(m)) {
		t.Fatalf("Decrypt(%s) with p=%s q=%s = %s, want ≡ %s mod p, ≡ %s mod q", x, p, q, m, mp, mq)
	}
}

// TestCRTMatchesWindow holds the factorised noise term — the encryption of 0,
// xⁿ mod n² — equal to the n² window path, the Montgomery context every
// non-holder uses, at the Paillier key shapes, one-limb primes (a 128-bit
// key) included, over seeded nonces.
func TestCRTMatchesWindow(t *testing.T) {
	for _, bits := range []int{64, 128, 256, 512, 1024} {
		r := NewRNG(uint64(0xC27 + bits))
		for key := 0; key < 3; key++ {
			p, q := r.RandSafePrimePair(bits / 2)
			c, err := NewCRT(p, q)
			if err != nil {
				t.Fatal(err)
			}
			n := Mul(p, q)
			m := NewMont(Mul(n, n))
			if Cmp(c.N(), n) != 0 {
				t.Fatalf("N() = %s, want %s", c.N(), n)
			}
			for i := 0; i < 20; i++ {
				x := r.RandCoprime(n)
				if got, want := c.Encrypt(nil, x), m.Exp(x, n); Cmp(got, want) != 0 {
					t.Fatalf("%d-bit key %d: Encrypt(0, %s) = %s, n² window says %s", bits, key, x, got, want)
				}
			}
			checkCRT(t, c, p, q, r.RandCoprime(n))
		}
	}
}

// TestEncryptDrawsTheRandCoprimeNonce: the two routines that draw their nonce
// into pooled scratch encrypt under exactly the nonce RNG.RandCoprime returns
// for the same generator state, leave the generator where RandCoprime leaves
// it, and agree with each other — holder ≡ public — at every key shape, the
// ones whose nonce draw rejects candidates (a top limb mostly empty) included.
// Each call is a group of one lane; group_test.go runs the fuller groups.
func TestEncryptDrawsTheRandCoprimeNonce(t *testing.T) {
	forEachBody(t, func() {
		for _, bits := range []int{32, 66, 128, 130, 256, 512, 1024} {
			r := NewRNG(uint64(0xD2A + bits))
			p, q := r.RandSafePrimePair(bits / 2)
			c, err := NewCRT(p, q)
			if err != nil {
				t.Fatal(err)
			}
			n := c.N()
			m2, sched := NewMont(Mul(n, n)), CompileExpAuto(n)
			for i := 0; i < 24; i++ {
				msg, seed := r.RandBelow(n), r.Uint64()
				ref := NewRNG(seed)
				want := ModMul(AddWord(Mul(msg, n), 1), ModExp(ref.RandCoprime(n), n, m2.N()), m2.N())
				own, pub := NewRNG(seed), NewRNG(seed)
				got := make([]Nat, 1)
				if c.EncryptDrawVec(got, []Nat{msg}, []*RNG{own}); Cmp(got[0], want) != 0 {
					t.Fatalf("%d bits: EncryptDrawVec(%s) = %s, textbook under RandCoprime's nonce says %s", bits, msg, got[0], want)
				}
				if m2.EncryptNDrawVec(got, []Nat{msg}, n, sched, []*RNG{pub}); Cmp(got[0], want) != 0 {
					t.Fatalf("%d bits: EncryptNDrawVec(%s) = %s, textbook under RandCoprime's nonce says %s", bits, msg, got[0], want)
				}
				if next := ref.Uint64(); own.Uint64() != next || pub.Uint64() != next {
					t.Fatalf("%d bits: a scratch draw left its generator somewhere RandCoprime does not", bits)
				}
			}
		}
	})
}

// TestCRTEdgeOperands covers the operands a nonce never is: 0, 1, multiples
// of a prime, values at and above n and n², and primes of unequal length in
// both orders (so Garner's reduction sees q² > 3p² and p² > 3q²).
func TestCRTEdgeOperands(t *testing.T) {
	r := NewRNG(0xED6E)
	for _, shape := range [][2]int{{16, 96}, {96, 16}, {64, 65}, {130, 64}, {32, 32}} {
		p, q := r.RandPrime(shape[0]), r.RandPrime(shape[1])
		if Cmp(p, q) == 0 {
			continue
		}
		c, err := NewCRT(p, q)
		if err != nil {
			t.Fatal(err)
		}
		n := Mul(p, q)
		n2 := Mul(n, n)
		for _, x := range []Nat{
			nil, One(), FromUint64(2), p, q, Mul(p, FromUint64(3)), AddWord(p, 2), AddWord(Mul(q, p), 5),
			SubWord(n, 1), n, SubWord(n2, 1), n2, AddWord(Lsh(n2, 70), 7), r.RandBits(700),
		} {
			checkCRT(t, c, p, q, x)
		}
	}
}

func TestNewCRTRejects(t *testing.T) {
	for _, pq := range [][2]uint64{{7, 7}, {8, 7}, {7, 1}, {0, 5}, {15, 5}, {2, 3}} {
		if _, err := NewCRT(FromUint64(pq[0]), FromUint64(pq[1])); err == nil {
			t.Errorf("NewCRT(%d, %d) accepted", pq[0], pq[1])
		}
	}
	if _, err := NewCRT(FromUint64(3), FromUint64(5)); err != nil {
		t.Errorf("NewCRT(3, 5): %v", err)
	}
}

// TestCRTConcurrent runs one compiled CRT from several goroutines at once;
// under -race it is the check that the pooled scratch is never shared.
func TestCRTConcurrent(t *testing.T) {
	r := NewRNG(0xC0C)
	p, q := r.RandSafePrimePair(128)
	c, err := NewCRT(p, q)
	if err != nil {
		t.Fatal(err)
	}
	n := Mul(p, q)
	m := NewMont(Mul(n, n))
	xs := make([]Nat, 64)
	want := make([]Nat, len(xs))
	for i := range xs {
		xs[i] = r.RandCoprime(n)
		want[i] = m.Exp(xs[i], n)
	}
	done := make(chan int, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			bad := 0
			for i := g; i < len(xs); i += 4 {
				if Cmp(c.Encrypt(nil, xs[i]), want[i]) != 0 {
					bad++
				}
				// xs[i] doubles as the plaintext: 1 + x·n times the same xⁿ.
				if Cmp(c.Encrypt(xs[i], xs[i]), m.ModMulInto(nil, AddWord(Mul(xs[i], n), 1), want[i])) != 0 {
					bad++
				}
			}
			done <- bad
		}(g)
	}
	for g := 0; g < 4; g++ {
		if bad := <-done; bad != 0 {
			t.Errorf("%d concurrent Encrypt results differ from the window path", bad)
		}
	}
}

// BenchmarkNoiseTerm prices xⁿ mod n², the encryption of 0, through the
// factorisation against the n² window.
func BenchmarkNoiseTerm(b *testing.B) {
	for _, bits := range []int{128, 1024, 2048} {
		r := NewRNG(uint64(bits))
		p, q := r.RandPrime(bits/2), r.RandPrime(bits/2)
		c, err := NewCRT(p, q)
		if err != nil {
			b.Fatal(err)
		}
		n := Mul(p, q)
		m := NewMont(Mul(n, n))
		x := r.RandCoprime(n)
		b.Run("crt/"+FromUint64(uint64(bits)).String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Encrypt(nil, x)
			}
		})
		b.Run("window/"+FromUint64(uint64(bits)).String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Exp(x, n)
			}
		})
	}
}
