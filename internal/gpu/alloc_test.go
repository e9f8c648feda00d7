//go:build !race

// Under the race detector sync.Pool drops a quarter of its Puts on purpose, so
// the pooled launch state is re-allocated at random; this pin runs in the plain
// test pass.

package gpu

import "testing"

// TestLaunchAllocatesNothing pins a launch with no watchdog armed at zero heap
// allocations, whether the launcher runs every item itself (one host worker,
// or one item) or starts workers beside it: the state is pooled and a worker
// starts on a func value bound with the state. The
// closures this replaced allocated 148 B a launch, the largest single site of
// cohort_tree_128's bytes a step.
func TestLaunchAllocatesNothing(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		cfg := RTX3090()
		cfg.HostWorkers = workers
		d := MustNew(cfg, true)
		for _, k := range []Kernel{
			{Name: "one item", Items: 1, RegsPerThread: 32, WordOps: 1},
			{Name: "a batch", Items: 64, RegsPerThread: 32, WordOps: 1},
		} {
			ran := make([]int, k.Items)
			k = k.over(func(i int) { ran[i]++ })
			got := testing.AllocsPerRun(200, func() {
				if _, err := d.Launch(k); err != nil {
					t.Fatal(err)
				}
			})
			if got != 0 {
				t.Errorf("%d workers, %s: %.2f allocs a launch, want 0", workers, k.Name, got)
			}
			for i, n := range ran {
				if n != 201 {
					t.Fatalf("%d workers, %s: item %d ran %d times in 201 launches", workers, k.Name, i, n)
				}
			}
		}
	}
}
