package mpint

import (
	"fmt"
	"math/big"
	"testing"
)

// bigRound is one Miller–Rabin round by math/big — the oracle the walk's
// rounds are held to.
func bigRound(n, a Nat) bool {
	bn, one := toBig(n), big.NewInt(1)
	nm1 := new(big.Int).Sub(bn, one)
	s := nm1.TrailingZeroBits()
	x := new(big.Int).Exp(toBig(a), new(big.Int).Rsh(nm1, s), bn)
	if x.Cmp(one) == 0 || x.Cmp(nm1) == 0 {
		return true
	}
	for i := uint(1); i < s; i++ {
		if x.Mul(x, x).Mod(x, bn); x.Cmp(nm1) == 0 {
			return true
		} else if x.Cmp(one) == 0 {
			return false
		}
	}
	return false
}

// liar plays a strong liar over a verdict: one candidate in eight (by a hash
// of n) passes each round to a base with probability ≈ 0.85 whatever the
// arithmetic says, so composites pass round 0 and fail a later round all the
// time — the rewind the window must get right — and sometimes pass all twenty.
// It is a function of (n, a) alone, so every runner sees the same verdicts.
func liar(verdict func(n, a Nat) bool) func(n, a Nat) bool {
	mix := func(x Nat, h uint64) uint64 {
		for _, w := range x {
			h = (h ^ uint64(w)) * 0x100000001B3
		}
		return h ^ h>>29
	}
	return func(n, a Nat) bool {
		hn := mix(n, 0xCBF29CE484222325)
		return verdict(n, a) || (hn%8 == 0 && mix(a, hn)%100 < 85)
	}
}

// oracleRounds is a RoundRunner that asks verdict for every round.
func oracleRounds(verdict func(n, a Nat) bool) RoundRunner {
	return func(ns, as []Nat, passed []bool) error {
		for i, a := range as {
			passed[i] = verdict(ns[min(i, len(ns)-1)], a)
		}
		return nil
	}
}

// walkStats counts the serial walk's restarts by cause.
type walkStats struct{ steps, overflow, liedTo int }

// serialWalk is RandPrime as it was before the window: the reference. It
// takes a round's verdict from verdict, and counts its restarts into st.
func serialWalk(r *RNG, bits int, verdict func(n, a Nat) bool, st *walkStats) Nat {
	for {
		cand := r.RandBits(bits)
		cand[0] |= 1
		attempt := 0
		for ; attempt < 512; attempt++ {
			if cand.BitLen() != bits {
				st.overflow++
				break
			}
			if serialIsPrime(cand, r, verdict, st) {
				return cand
			}
			cand = AddWord(cand, 2)
		}
		if attempt == 512 {
			st.steps++
		}
	}
}

// serialIsPrime is IsPrime as it was, for the odd candidates of a walk.
func serialIsPrime(n Nat, rng *RNG, verdict func(n, a Nat) bool, st *walkStats) bool {
	for _, p := range smallPrimes[1:] {
		if modWord(n, p) == 0 {
			return len(n) == 1 && n[0] == p
		}
	}
	nm3 := SubWord(n, 3)
	for round := 0; round < 20; round++ {
		if !verdict(n, AddWord(rng.RandBelow(nm3), 2)) {
			if round > 0 {
				st.liedTo++
			}
			return false
		}
	}
	return true
}

// checkWalk runs search and the serial reference on one seed and width and
// fails unless both return the same prime and leave the generator in the
// same state.
func checkWalk(t *testing.T, search PrimeSearch, verdict func(n, a Nat) bool, seed uint64, bits int, st *walkStats) {
	t.Helper()
	ref, got := NewRNG(seed), NewRNG(seed)
	want := serialWalk(ref, bits, verdict, st)
	p, err := search.Prime(got, bits)
	if err != nil {
		t.Fatal(err)
	}
	if Cmp(p, want) != 0 || *got != *ref {
		t.Fatalf("seed %d, %d bits, window %d: prime %s, state %x; the serial walk drew %s, state %x",
			seed, bits, search.Window, p, got.s, want, ref.s)
	}
}

// TestWindowedWalkIsTheSerialWalk: over 1,110 (width, seed) pairs — widths
// where trial division decides (4–12 bits) and past them — the windowed
// search on the host loop returns the serial walk's prime and leaves the
// generator where the serial walk left it, at every window.
func TestWindowedWalkIsTheSerialWalk(t *testing.T) {
	var st walkStats
	windows := []int{1, 2, 3, 5, 8, 13}
	for bits := 4; bits <= 40; bits++ {
		for seed := uint64(0); seed < 30; seed++ {
			search := PrimeSearch{Window: windows[(int(seed)+bits)%len(windows)], Run: HostRounds}
			checkWalk(t, search, bigRound, seed, bits, &st)
		}
	}
	if st.overflow == 0 {
		t.Fatal("no walk restarted on a carry past its width")
	}
}

// TestWindowedWalkRewindsPastLiars: under a verdict oracle that plays a strong
// liar — injected into the serial reference and the windowed search alike —
// survivors pass round 0 and fail later rounds, composites are sometimes
// accepted, and 1,024-bit walks run out their 512 steps; the windowed search
// is the serial walk through all of it.
func TestWindowedWalkRewindsPastLiars(t *testing.T) {
	var st walkStats
	// Beside the real rounds the liar also plays alone — a round passes only
	// where it lets one — which makes walks run out of steps and carry past
	// their width, and keeps 1,024-bit walks free of arithmetic.
	never := func(Nat, Nat) bool { return false }
	for _, bits := range []int{5, 9, 16, 64, 1024} {
		for seed := uint64(0); seed < 12; seed++ {
			for _, w := range []int{1, 4, 8, 19, 64} {
				verdicts := []func(n, a Nat) bool{liar(never)}
				if bits <= 64 {
					verdicts = append(verdicts, liar(bigRound))
				}
				for _, verdict := range verdicts {
					checkWalk(t, PrimeSearch{Window: w, Run: oracleRounds(verdict)}, verdict, seed, bits, &st)
				}
			}
		}
	}
	if st.steps == 0 || st.overflow == 0 || st.liedTo == 0 {
		t.Fatalf("the suite missed a path of the walk: %+v", st)
	}
}

// TestPrimeSearchErrors: a runner's error ends the search with it, and a
// width below 4 rejects before anything is drawn.
func TestPrimeSearchErrors(t *testing.T) {
	boom := fmt.Errorf("device on fire")
	failing := PrimeSearch{Window: 4, Run: func([]Nat, []Nat, []bool) error { return boom }}
	if _, err := failing.Prime(NewRNG(1), 64); err != boom {
		t.Fatalf("runner error came back as %v", err)
	}
	r := NewRNG(1)
	before := *r
	if _, _, err := HostSearch.Pair(r, 3); err == nil || *r != before {
		t.Fatalf("width 3: err %v, generator moved %v", err, *r != before)
	}
}

// TestPrimeTestRoundMatchesBig: a round on the Montgomery chain is math/big's
// round, on every body the host has, primes and composites alike.
func TestPrimeTestRoundMatchesBig(t *testing.T) {
	forEachBody(t, func() {
		r := NewRNG(70)
		for i := 0; i < 300; i++ {
			n := AddWord(randNat(r, 40+i), 5)
			n[0] |= 1
			if i%3 == 0 {
				n = r.RandPrime(max(n.BitLen(), 4))
			}
			pt := NewPrimeTest(n)
			for j := 0; j < 4; j++ {
				a := drawBase(r, n)
				if got, want := pt.Round(a), bigRound(n, a); got != want {
					t.Fatalf("round on %s to base %s = %v, math/big says %v", n, a, got, want)
				}
			}
		}
	})
}

// BenchmarkRounds times a Miller–Rabin round a candidate at the widths key
// generation tests — a 1,024-bit key's primes and a 2,048-bit key's — one at
// a time (Round) and eight a walk (Rounds) in the two shapes the walk asks
// for: round 0 of eight candidates, each lane its own modulus and exponent
// (own), and rounds 1–19 of one (shared). ns/round is per candidate-round;
// the tests are built outside the timing.
func BenchmarkRounds(b *testing.B) {
	r := NewRNG(74)
	for _, bits := range []int{512, 1024} {
		ts, as := make([]*PrimeTest, groupLanes), make([]Nat, groupLanes)
		for i := range ts {
			ts[i] = NewPrimeTest(randOdd(r, bits))
			as[i] = drawBase(r, ts[i].mont.n)
		}
		shared := make([]*PrimeTest, groupLanes)
		for i := range shared {
			shared[i] = ts[0]
		}
		passed := make([]bool, groupLanes)
		perRound := func(b *testing.B, rounds int) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds), "ns/round")
		}
		b.Run(fmt.Sprintf("%d/one-at-a-time", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ts[i%groupLanes].Round(as[i%groupLanes])
			}
			perRound(b, 1)
		})
		for _, shape := range []struct {
			name string
			ts   []*PrimeTest
		}{{"own", ts}, {"shared", shared}} {
			b.Run(fmt.Sprintf("%d/%s/amm52x8", bits, shape.name), func(b *testing.B) {
				walking(true, func() {
					for i := 0; i < b.N; i++ {
						Rounds(shape.ts, as, passed)
					}
				})
				perRound(b, groupLanes)
			})
		}
	}
}
