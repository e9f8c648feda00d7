package mpint

import (
	"fmt"
	"sync"
)

// smallPrimes covers trial division before the Miller–Rabin rounds; the
// product-of-residues trick is unnecessary at the key sizes we target.
var smallPrimes = []Word{
	2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
	71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
	151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
	233, 239, 241, 251,
}

// millerRabinRounds gives a 2⁻⁸⁰-ish error bound for random candidates at
// the sizes used here; key generation additionally benefits from the
// structure of random search.
const millerRabinRounds = 20

// walkSteps is how many candidates the prime walk takes from one start
// before it draws a fresh one.
const walkSteps = 512

// IsPrime reports whether n is (probably) prime, using trial division by
// small primes followed by Miller–Rabin with rounds random bases drawn from
// rng — the test one step of the key-generation walk applies.
func IsPrime(n Nat, rng *RNG) bool {
	n = trim(n)
	if len(n) == 0 {
		return false
	}
	if v, ok := n.Uint64(); ok && v < 4 {
		return v == 2 || v == 3
	}
	if n.IsEven() {
		return false
	}
	if decided, prime := trialDivision(n); decided {
		return prime
	}
	t := NewPrimeTest(n)
	for round := 0; round < millerRabinRounds; round++ {
		if !t.Round(drawBase(rng, n)) {
			return false
		}
	}
	return true
}

// trialDivision decides an odd n > 3 by the small primes when one divides it:
// decided reports whether one did, prime whether n is that prime.
func trialDivision(n Nat) (decided, prime bool) {
	for _, p := range smallPrimes[1:] {
		if modWord(n, p) == 0 {
			return true, len(n) == 1 && n[0] == p
		}
	}
	return false, false
}

// drawBase draws a round's base for n from rng: uniform in [2, n−2].
func drawBase(rng *RNG, n Nat) Nat { return AddWord(rng.RandBelow(SubWord(n, 3)), 2) }

// PrimeTest is an odd candidate n ≥ 5 made ready for Miller–Rabin rounds:
// n − 1 = d·2^s with d odd, n's Montgomery context and d compiled. Rounds
// share nothing but the test, so any number may run on one concurrently.
type PrimeTest struct {
	mont     *Mont
	d        Nat // the odd part of n − 1
	s        uint
	minusOne Nat // n − 1 in Montgomery form: n − (R mod n)

	// d's sliding-window schedule, compiled by the first round that walks it:
	// a candidate in a group of candidates walks fixed windows of d instead,
	// and most candidates run that one round.
	once  sync.Once
	sched *ExpSchedule
}

// NewPrimeTest prepares n, odd and at least 5, for its rounds.
func NewPrimeTest(n Nat) *PrimeTest {
	nm1 := SubWord(n, 1)
	s := nm1.TrailingZeroBits()
	m := NewMont(n)
	return &PrimeTest{mont: m, d: Rsh(nm1, s), s: s, minusOne: Sub(m.n, m.one)}
}

func (t *PrimeTest) schedule() *ExpSchedule {
	t.once.Do(func() { t.sched = CompileExpAuto(t.d) })
	return t.sched
}

// Round runs one round to base a in [2, n−2] and reports whether n survives
// it: a^d ≡ ±1, or a square of it reaches −1 before it reaches 1.
func (t *PrimeTest) Round(a Nat) bool {
	m := t.mont
	sc := m.getScratch()
	defer m.putScratch(sc)
	return t.decide(m.expMont(a, t.schedule(), sc), sc)
}

// decide finishes a round from x = a^d in Montgomery form, k limbs it squares
// in place; the chain stays in that form, where 1 is R mod n.
func (t *PrimeTest) decide(x Nat, sc *mulScratch) bool {
	m := t.mont
	if Cmp(x, m.one) == 0 || Cmp(x, t.minusOne) == 0 {
		return true
	}
	for i := uint(1); i < t.s; i++ {
		m.mulInto(x, x, x, sc)
		if Cmp(x, t.minusOne) == 0 {
			return true
		}
		if Cmp(x, m.one) == 0 {
			return false
		}
	}
	return false
}

// Rounds runs one round a lane: passed[i] reports whether ts[i]'s candidate
// survives the round to base as[i], Round's verdict. Each group of eight runs
// its exponentiations as one walk on amm52x8 where the host and the group's
// fill allow (mont52x8.go): lanes that share one test share its schedule;
// lanes with tests of their own, all of one digit count, walk fixed windows
// of their own exponents.
func Rounds(ts []*PrimeTest, as []Nat, passed []bool) {
	for lo := 0; lo < len(as); lo += groupLanes {
		hi := min(lo+groupLanes, len(as))
		roundGroup(ts[lo:hi], as[lo:hi], passed[lo:hi])
	}
}

func roundGroup(ts []*PrimeTest, as []Nat, passed []bool) {
	var scs [groupLanes]*mulScratch
	var xs [groupLanes]Nat
	n, shared := len(ts), true
	for l, t := range ts {
		scs[l] = t.mont.getScratch()
		shared = shared && t == ts[0]
	}
	if shared {
		ts[0].mont.expMontVec(xs[:n], as, ts[0].schedule(), scs[:n])
	} else {
		expMontLanes(xs[:n], ts, as, scs[:n])
	}
	for l, t := range ts {
		passed[l] = t.decide(xs[l], scs[l])
		t.mont.putScratch(scs[l])
	}
}

// expMontLanes sets xs[i] to ts[i]'s expMont of as[i] for up to eight tests of
// different candidates: one walkFixed over each lane's own modulus and
// exponent where every lane has a radix-2⁵² side of one digit count and the
// group is full enough, else a chain at a time.
func expMontLanes(xs []Nat, ts []*PrimeTest, as []Nat, scs []*mulScratch) {
	n, bits := len(ts), 0
	f := ts[0].mont.ifma()
	for _, t := range ts {
		if g := t.mont.ifma(); f == nil || g == nil || g.d != f.d {
			f = nil
		}
		bits = max(bits, t.d.BitLen())
	}
	if f == nil || !walkGroup(f.d, n) {
		for l, t := range ts {
			xs[l] = t.mont.expMont(as[l], t.schedule(), scs[l])
		}
		return
	}
	w := groupLanes * f.d
	g := getGroup((1<<fixedWindowBits(bits) + 7) * w)
	g.L.carve(f.d, g.take(3*w))
	acc := g.take(w)
	var es [groupLanes]Nat
	for l := range groupLanes {
		t := ts[min(l, n-1)] // a short group pads with its last lane
		g.L.set(l, t.mont.ifma())
		toDigits(acc[l:], as[min(l, n-1)], groupLanes)
		es[l] = t.d
	}
	g.L.walkFixed(acc, &es, bits, g)
	for l, t := range ts {
		xs[l] = t.mont.leave(acc, l, scs[l])
	}
	groupScratches.Put(g)
}

// RoundRunner runs a batch of Miller–Rabin rounds: passed[i] reports whether
// candidate ns[i] — ns[0] for every i when ns holds one — survives the round
// to base as[i]. An error ends the search that asked for the batch.
type RoundRunner func(ns, as []Nat, passed []bool) error

// HostRounds is the host loop: the rounds one after the other on the calling
// goroutine.
func HostRounds(ns, as []Nat, passed []bool) error {
	var t *PrimeTest
	for i, a := range as {
		if t == nil || len(ns) > 1 {
			t = NewPrimeTest(ns[i])
		}
		passed[i] = t.Round(a)
	}
	return nil
}

// PrimeSearch is the seeded walk every key in the repository is drawn by,
// with its Miller–Rabin rounds tested Window at a time by Run.
//
// The walk: an odd start of exactly bits bits from RandBits, then +2 a step,
// restarting from a fresh draw after walkSteps steps or when a step carries
// past bits; trial division by the small primes, then millerRabinRounds
// rounds whose bases the same generator draws, the first failing round ending
// the candidate. Run serially, one exponentiation at a time, the walk is a
// chain — every round's base is drawn after the previous round's verdict.
//
// The window breaks the chain without moving a draw. Prime collects the next
// Window trial-division survivors, drawing each one's round-0 base in walk
// order and keeping the generator's 32-byte state and the walk's position
// after each draw, and runs their round 0 as one batch. Were every verdict a
// failure the serial walk would have made exactly those draws, so it goes on
// from there. Otherwise the first survivor in order that passed is where the
// serial walk stopped drawing round-0 bases: Prime rewinds to its snapshot,
// draws its rounds 1–19 with a snapshot after each, and runs them as one more
// batch. A prime leaves the generator after its last base, as serially; at the
// first failing round Prime rewinds to that round's snapshot, which is where
// the serial walk moved on, and resumes the walk. Every exponentiation that
// steered the serial walk is computed, a composite consumes exactly the bases
// it did, and the primes and the generator's state after them are the serial
// walk's for any window and any runner that computes the rounds. Window 1 on
// HostRounds is the serial walk itself: RandPrime.
type PrimeSearch struct {
	Window int
	Run    RoundRunner
}

// HostSearch is the walk a round at a time on the host loop.
var HostSearch = PrimeSearch{Window: 1, Run: HostRounds}

// walk is the prime search's candidate sequence.
type walk struct {
	rng     *RNG
	bits    int
	cand    Nat // the next candidate; nil before the first start
	attempt int // candidates taken since the last start
}

// walkMark is where the walk and its generator stood: enough to rewind both.
type walkMark struct {
	rng     RNG
	cand    Nat
	attempt int
}

func (w *walk) mark() walkMark    { return walkMark{*w.rng, w.cand, w.attempt} }
func (w *walk) rewind(m walkMark) { *w.rng, w.cand, w.attempt = m.rng, m.cand, m.attempt }

// next takes candidates until one that trial division does not reject: a
// survivor the rounds must decide, or — sure — a small prime it proves.
func (w *walk) next() (c Nat, sure bool) {
	for {
		if w.cand == nil || w.attempt == walkSteps || w.cand.BitLen() != w.bits {
			w.cand = w.rng.RandBits(w.bits)
			w.cand[0] |= 1
			w.attempt = 0
		}
		c, w.cand = w.cand, AddWord(w.cand, 2)
		w.attempt++
		if decided, prime := trialDivision(c); !decided || prime {
			return c, decided
		}
	}
}

// Prime returns the walk's next prime of exactly bits bits, drawn from r.
func (s PrimeSearch) Prime(r *RNG, bits int) (Nat, error) {
	if bits < 4 {
		return nil, fmt.Errorf("mpint: prime width %d too small", bits)
	}
	window := max(s.Window, 1)
	w := walk{rng: r, bits: bits}
	ns, as := make([]Nat, 0, window), make([]Nat, 0, window)
	marks := make([]walkMark, 0, window)
	passed := make([]bool, max(window, millerRabinRounds-1))
	bases, after := make([]Nat, millerRabinRounds-1), make([]RNG, millerRabinRounds-1)
	for {
		ns, as, marks = ns[:0], as[:0], marks[:0]
		var sure Nat
		for len(ns) < window && sure == nil {
			c, proved := w.next()
			if proved {
				sure = c
				continue
			}
			ns, as = append(ns, c), append(as, drawBase(r, c))
			marks = append(marks, w.mark())
		}
		k, err := s.first(ns, as, passed, true)
		if err != nil {
			return nil, err
		}
		if k < 0 {
			if sure != nil {
				return sure, nil
			}
			continue
		}
		w.rewind(marks[k])
		n := ns[k]
		for i := range bases {
			bases[i] = drawBase(r, n)
			after[i] = *r
		}
		j, err := s.first(ns[k:k+1], bases, passed, false)
		if err != nil {
			return nil, err
		}
		if j < 0 {
			return n, nil
		}
		*r = after[j]
	}
}

// first runs the rounds (ns, as) and returns the index of the first whose
// verdict is want, -1 when none is.
func (s PrimeSearch) first(ns, as []Nat, passed []bool, want bool) (int, error) {
	if len(as) == 0 {
		return -1, nil
	}
	passed = passed[:len(as)]
	if err := s.Run(ns, as, passed); err != nil {
		return -1, err
	}
	for i, v := range passed {
		if v == want {
			return i, nil
		}
	}
	return -1, nil
}

// Pair returns two distinct primes of the given width, drawn from r one after
// the other — redrawing q while it equals p — as Paillier and RSA moduli take
// them.
func (s PrimeSearch) Pair(r *RNG, bits int) (p, q Nat, err error) {
	if p, err = s.Prime(r, bits); err != nil {
		return nil, nil, err
	}
	for {
		if q, err = s.Prime(r, bits); err != nil || Cmp(p, q) != 0 {
			return p, q, err
		}
	}
}

// Key walks prime pairs from r until assemble accepts one whose product n has
// exactly bits bits: the one key walk, Paillier's and RSA's, each family
// assembling its own key. A short product is passed over before assembly and
// a pair assemble refuses (its error) is redrawn; no draw depends on either,
// so neither moves a key. The errors name no family; the caller's do.
func (s PrimeSearch) Key(r *RNG, bits int, assemble func(p, q Nat) error) error {
	if err := CheckKeyBits(bits); err != nil {
		return err
	}
	for {
		p, q, err := s.Pair(r, bits/2)
		if err != nil {
			return fmt.Errorf("prime search: %w", err)
		}
		if Mul(p, q).BitLen() == bits && assemble(p, q) == nil {
			return nil
		}
	}
}

// CheckKeyBits rejects the modulus sizes Key cannot produce: too small to
// hold a plaintext, or odd — two bits/2-bit primes never multiply to an
// odd-length n, and the redraw loop would spin forever looking for one.
func CheckKeyBits(bits int) error {
	if bits < 16 {
		return fmt.Errorf("key size %d too small", bits)
	}
	if bits%2 != 0 {
		return fmt.Errorf("key size %d is odd; n is the product of two %d-bit primes", bits, bits/2)
	}
	return nil
}

// RandPrime returns a random prime with exactly bits significant bits: the
// walk on the host loop. It panics when bits < 4.
func (r *RNG) RandPrime(bits int) Nat {
	p, err := HostSearch.Prime(r, bits)
	if err != nil {
		panic(err)
	}
	return p
}

// RandSafePrimePair returns distinct primes p, q of the given bit width with
// p ≠ q, suitable for Paillier/RSA modulus construction. ("Safe" here means
// safe for the cryptosystems' requirements — distinct, full-width — not
// Sophie-Germain safe primes, which key sizes in the benchmarks don't need.)
func (r *RNG) RandSafePrimePair(bits int) (p, q Nat) {
	p, q, err := HostSearch.Pair(r, bits)
	if err != nil {
		panic(err)
	}
	return p, q
}
