//go:build !race

// Under the race detector sync.Pool drops a quarter of its Puts on purpose, so
// the pooled Montgomery scratch is re-allocated at random and allocation
// counts stop meaning anything; these pins run in the plain test pass.

package ghe

import (
	"runtime"
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

// TestCheckedOverheadOverBareEngine pins what the executor costs on top of
// the launch it schedules: a small op on a one-device set — the default
// wiring of every GPU profile — may make at most two more allocations and
// 64 more bytes than the same op on the bare Engine. The bound comes from
// the repository benchmark: cohort_tree_128 runs 2,049 launches a step and
// allows alloc_mb_per_step 5%, about 58 B an op. Scheduler bookkeeping
// rebuilt per op (maps, a goroutine and a WaitGroup for a one-device wave, a
// second output vector copied shard by shard) costs 17 allocations and 784 B.
func TestCheckedOverheadOverBareEngine(t *testing.T) {
	r := mpint.NewRNG(78)
	n := r.RandBits(256)
	n[0] |= 1
	m := mpint.NewMont(n)
	a, b := randVec(r, 4, n), randVec(r, 4, n)
	cfg := gpu.RTX3090()
	cfg.HostWorkers = 1 // AllocsPerRun counts the whole process
	set, err := gpu.NewDeviceSet(cfg, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := NewCheckedEngine(set, CheckedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(eng VectorEngine) (allocs, bytes float64) {
		op := func() {
			if _, err := eng.ModMulVec(a, b, m); err != nil {
				t.Fatal(err)
			}
		}
		op() // the scheduler's scratch grows once
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		return testing.AllocsPerRun(runs, op), float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	bareAllocs, bareBytes := measure(MustEngine(gpu.MustNew(cfg, true)))
	allocs, bytes := measure(checked)
	t.Logf("bare engine %.0f allocs / %.0f B an op, executor at D=1 %.0f / %.0f", bareAllocs, bareBytes, allocs, bytes)
	if allocs > bareAllocs+2 || bytes > bareBytes+64 {
		t.Errorf("executor at D=1: %.0f allocs / %.0f B an op, bare engine %.0f / %.0f: ceiling +2 / +64 B",
			allocs, bytes, bareAllocs, bareBytes)
	}
}
