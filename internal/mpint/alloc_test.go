//go:build !race

// Under the race detector sync.Pool drops a quarter of its Puts on purpose, so
// the pooled Montgomery scratch is re-allocated at random and allocation
// counts stop meaning anything; these pins run in the plain test pass.

package mpint

import "testing"

// Allocation ceilings for the number-theory paths under Paillier. Each is a
// count of heap allocations per call, so the pins hold on any machine.
func TestAllocCeilings(t *testing.T) {
	r := NewRNG(0xA110C)
	n := randOdd(r, 2048)
	m := NewMont(n)
	base, e := r.RandBelow(n), r.RandBits(2048)
	x, y, wide := r.RandBits(2048), r.RandBits(1900), r.RandBits(4000)
	sched := CompileExpAuto(e)
	m.Exp(wide, e) // fill the scratch pool
	for _, tc := range []struct {
		name string
		max  float64
		fn   func()
	}{
		// The result; the schedule is compiled into the pooled scratch.
		{"Mont.Exp", 1, func() { m.Exp(base, e) }},
		{"Mont.ExpSched", 1, func() { m.ExpSched(base, sched) }},
		// A base above the modulus is reduced in the scratch.
		{"Mont.Exp (base ≥ n)", 1, func() { m.Exp(wide, e) }},
		{"Mont.Mul", 1, func() { m.Mul(base, base) }},
		// The Montgomery form of the first operand stays in the scratch.
		{"Mont.ModMulInto", 1, func() { m.ModMulInto(nil, base, base) }},
		// The two working copies; the result is one of them.
		{"GCD", 2, func() { GCD(x, y) }},
		// The candidate, and one slab for the coprimality check's working pair.
		{"RandCoprime", 2, func() { r.RandCoprime(n) }},
		{"RandBelow", 1, func() { r.RandBelow(n) }},
	} {
		forEachBody(t, func() {
			if got := testing.AllocsPerRun(20, tc.fn); got > tc.max {
				t.Errorf("%s: %.1f allocs per call, ceiling %.0f", tc.name, got, tc.max)
			} else {
				t.Logf("%s: %.1f allocs per call (ceiling %.0f)", tc.name, got, tc.max)
			}
		})
	}
}

// TestCRTAllocCeilings pins the factorised operations at their result alone,
// at every key shape from one-limb primes up: the chain of four
// exponentiations, two reductions and the Garner step runs on pooled scratch —
// and so do a whole encryption's gᵐ and, when it draws one, its nonce (the
// generator a lane seeds for it stays on the stack), through the factorisation
// and through the n² window alike; a whole decryption, both half-width powers
// included; and a Horner chain of shifts over n².
func TestCRTAllocCeilings(t *testing.T) {
	for _, bits := range []int{128, 512, 1024, 2048} {
		r := NewRNG(uint64(0xA110C + bits))
		p, q := r.RandPrime(bits/2), r.RandPrime(bits/2)
		c, err := NewCRT(p, q)
		if err != nil {
			t.Fatal(err)
		}
		x := r.RandCoprime(c.N())
		hp, hq := c.P().ToMont(r.RandBelow(p)), c.Q().ToMont(r.RandBelow(q))
		n2, sched, shift := NewMont(Mul(c.N(), c.N())), CompileExpAuto(c.N()), CompileExpAuto(Nat{0, 1})
		c.Encrypt(x, x) // fill the scratch pool
		out := make([]Nat, 1)
		for _, tc := range []struct {
			name string
			fn   func()
		}{
			{"Decrypt", func() { c.Decrypt(n2.N(), hp, hq) }}, // an operand past both squares, reduced in the scratch
			{"ShiftPack", func() { n2.ShiftPack(nil, []Nat{x, n2.N(), x, x}, shift) }},
			{"Encrypt", func() { c.Encrypt(x, x) }},
			{"EncryptDrawVec", func() { out[0] = nil; c.EncryptDrawVec(out, []Nat{x}, []*RNG{NewRNG(7)}) }},
			{"EncryptN", func() { n2.EncryptN(x, x, c.N(), sched) }},
			{"EncryptNDrawVec", func() { out[0] = nil; n2.EncryptNDrawVec(out, []Nat{x}, c.N(), sched, []*RNG{NewRNG(7)}) }},
		} {
			forEachBody(t, func() {
				if got := testing.AllocsPerRun(20, tc.fn); got > 1 {
					t.Errorf("%d-bit %s: %.1f allocs per call, ceiling 1", bits, tc.name, got)
				}
			})
		}
	}
}

// TestMultiExpAllocCeilings pins a multi-exponentiation launch at its results:
// the table comes out of the context's pool and goes back, a row is built and
// a product walked on pooled scratch, so planning and building allocate
// nothing once the pools are warm and a product allocates its residue alone.
func TestMultiExpAllocCeilings(t *testing.T) {
	r := NewRNG(0xA110C5)
	n := randOdd(r, 2048)
	bases := make([]Nat, 32)
	for i := range bases {
		bases[i] = r.RandBelow(n)
	}
	bases[7] = Add(bases[7], n) // reduced in the scratch
	sums := make([][]Term, 8)
	for j := range sums {
		for i := range bases {
			sums[j] = append(sums[j], Term{Index: i, Weight: uint64(r.Intn(1 << 10))})
		}
	}
	forEachBody(t, func() {
		m := NewMont(n)
		launch := func(eval bool) func() {
			return func() {
				tbl, err := m.NewMultiExpTable(bases, sums)
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < tbl.Rows(); r++ {
					tbl.BuildRow(r)
				}
				for _, sum := range sums {
					if tbl.LaneMuls(sum); eval {
						tbl.Eval(nil, sum)
					}
				}
				tbl.Release()
			}
		}
		launch(true)() // fill the pools
		if got := testing.AllocsPerRun(20, launch(false)); got > 0 {
			t.Errorf("plan + table + pricing: %.1f allocs per launch, ceiling 0", got)
		}
		if got, max := testing.AllocsPerRun(20, launch(true)), float64(len(sums)); got > max {
			t.Errorf("launch of %d products: %.1f allocs, ceiling %.0f", len(sums), got, max)
		}
	})
}
