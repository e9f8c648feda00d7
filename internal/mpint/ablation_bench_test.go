package mpint

import (
	"fmt"
	"testing"
)

// Ablation benchmarks for the arithmetic design choices DESIGN.md §4 calls
// out: the schoolbook product at the widths the HE stack multiplies, and the
// exponentiation window.

func benchMul(b *testing.B, bits int) {
	r := NewRNG(70)
	x := r.RandBits(bits)
	y := r.RandBits(bits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkMulSchoolbook1024(b *testing.B) { benchMul(b, 1024) }
func BenchmarkMulSchoolbook2048(b *testing.B) { benchMul(b, 2048) }
func BenchmarkMulSchoolbook4096(b *testing.B) { benchMul(b, 4096) }
func BenchmarkMulSchoolbook8192(b *testing.B) { benchMul(b, 8192) }

func BenchmarkExpWindow1(b *testing.B) { benchExpWindow(b, 1) }
func BenchmarkExpWindow3(b *testing.B) { benchExpWindow(b, 3) }
func BenchmarkExpWindow5(b *testing.B) { benchExpWindow(b, 5) }

func benchExpWindow(b *testing.B, w uint) {
	r := NewRNG(71)
	n := r.RandBits(1024)
	n[0] |= 1
	m := NewMont(n)
	base := r.RandBelow(n)
	e := r.RandBits(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ExpWindow(base, e, w)
	}
}

// BenchmarkExpKernels is the measurement regMaxLimbs, ifmaMinLimbs and
// groupMinLanes rest on: one whole exponentiation (chain, and the way into and
// out of whichever representation it runs in) under every body this host has,
// at the exponent shapes the HE stack uses — half-width (a CRT leg),
// full-width (encryption under a bare public key) and 30 bits (a
// ciphertext-scalar product) — and, where the host has IFMA, a full lane group
// of eight such chains on amm52x8 (ExpSchedVec: the transposition in and out
// of the group is timed with it). Under rowKernelMin limbs no assembly body
// applies, so those widths run the Go rows and, up to regMaxLimbs, mul1/mul2.
// Every row reports ns/chain: 8, 16, 32 and 64 limbs are 10, 20, 40 and 79
// digits.
func BenchmarkExpKernels(b *testing.B) {
	r := NewRNG(73)
	perChain := func(b *testing.B, chains int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chains), "ns/chain")
	}
	for _, limbs := range []int{1, 2, 3, 4, 8, 12, 16, 24, 32, 48, 64} {
		bodies := func(fn func(body string)) { eachAddMulBody(fn) }
		if limbs < rowKernelMin {
			bodies = func(fn func(body string)) {
				defer func(regs bool) { useRegs = regs }(useRegs)
				useRegs = false
				fn("rows")
				if limbs <= regMaxLimbs {
					useRegs = true
					fn("regs")
				}
			}
		}
		n := randOdd(r, 64*limbs)
		bases := make([]Nat, groupLanes)
		for i := range bases {
			bases[i] = r.RandBelow(n)
		}
		for _, e := range []struct {
			name string
			bits int
		}{{"half", 32 * limbs}, {"full", 64 * limbs}, {"30bit", 30}} {
			exp := r.RandBits(e.bits)
			bodies(func(body string) {
				m := NewMont(n)
				b.Run(fmt.Sprintf("%d/%s/%s", limbs, e.name, body), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						m.Exp(bases[0], exp)
					}
					perChain(b, 1)
				})
			})
			if useIFMA && limbs >= ifmaMinLimbs {
				m, s, out := NewMont(n), CompileExpAuto(exp), make([]Nat, groupLanes)
				b.Run(fmt.Sprintf("%d/%s/amm52x8", limbs, e.name), func(b *testing.B) {
					walking(true, func() {
						for i := 0; i < b.N; i++ {
							m.ExpSchedVec(out, bases, s)
						}
					})
					perChain(b, groupLanes)
				})
			}
		}
	}
}

func TestExpWindowMatchesExp(t *testing.T) {
	r := NewRNG(72)
	n := r.RandBits(256)
	n[0] |= 1
	m := NewMont(n)
	base := r.RandBelow(n)
	e := r.RandBits(200)
	want := m.Exp(base, e)
	for w := uint(1); w <= 8; w++ {
		if got := m.ExpWindow(base, e, w); Cmp(got, want) != 0 {
			t.Fatalf("ExpWindow(w=%d) diverges", w)
		}
	}
}

func TestExpWindowRejectsBadWidth(t *testing.T) {
	m := NewMont(FromUint64(1000003))
	for _, w := range []uint{0, 13} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d should panic", w)
				}
			}()
			m.ExpWindow(FromUint64(2), FromUint64(3), w)
		}()
	}
}
