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
	x, y := r.RandBits(2048), r.RandBits(1900)
	sched := CompileExpAuto(e)
	m.Exp(base, e) // fill the scratch pool
	for _, tc := range []struct {
		name string
		max  float64
		fn   func()
	}{
		// The result; the schedule is compiled into the pooled scratch.
		{"Mont.Exp", 1, func() { m.Exp(base, e) }},
		{"Mont.ExpSched", 1, func() { m.ExpSched(base, sched) }},
		{"Mont.Mul", 1, func() { m.Mul(base, base) }},
		// The two working copies; the result is one of them.
		{"GCD", 2, func() { GCD(x, y) }},
		// The candidate, and one slab for the coprimality check's working pair.
		{"RandCoprime", 2, func() { r.RandCoprime(n) }},
		{"RandBelow", 1, func() { r.RandBelow(n) }},
	} {
		if got := testing.AllocsPerRun(20, tc.fn); got > tc.max {
			t.Errorf("%s: %.1f allocs per call, ceiling %.0f", tc.name, got, tc.max)
		} else {
			t.Logf("%s: %.1f allocs per call (ceiling %.0f)", tc.name, got, tc.max)
		}
	}
}
