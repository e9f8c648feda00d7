//go:build !race

// Under the race detector sync.Pool drops a quarter of its Puts on purpose, so
// the pooled Montgomery scratch is re-allocated at random and allocation
// counts stop meaning anything; these pins run in the plain test pass.

package ghe

import (
	"testing"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// TestModMulVecAllocCeiling pins ModMulVec at two heap allocations per
// element — the Montgomery form of one operand and the product — on the
// device engine and the host engine. The per-element count is the slope
// between two widths, which leaves out the per-launch constant.
func TestModMulVecAllocCeiling(t *testing.T) {
	r := mpint.NewRNG(77)
	n := r.RandBits(2048)
	n[0] |= 1
	m := mpint.NewMont(n)
	a, b := randVec(r, 128, n), randVec(r, 128, n)
	cfg := gpu.RTX3090()
	cfg.HostWorkers = 1 // AllocsPerRun counts the whole process
	for name, eng := range map[string]VectorEngine{
		"device": MustEngine(gpu.MustNew(cfg, true)),
		"host":   NewCPUEngine(),
	} {
		allocs := func(width int) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := eng.ModMulVec(a[:width], b[:width], m); err != nil {
					t.Fatal(err)
				}
			})
		}
		if per := (allocs(128) - allocs(64)) / 64; per > 2 {
			t.Errorf("%s ModMulVec: %.2f allocs per element, ceiling 2", name, per)
		}
	}
}
