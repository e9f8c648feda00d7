package gpu

import (
	"strings"
	"testing"
)

// Boundary cases of the resource manager and the launch validation path
// (DESIGN.md §7 panic audit: misconfiguration is an error, never a crash or
// silent mis-accounting).

func TestLaunchZeroItemsNotCounted(t *testing.T) {
	d := MustNew(SmallTestDevice(), true)
	occ, err := d.Launch(Kernel{Name: "empty", Items: 0, RegsPerThread: 16}.over(func(int) {
		t.Fatal("kernel body must not run for zero items")
	}))
	if err != nil || occ != 0 {
		t.Fatalf("zero-item launch: occ %v, err %v", occ, err)
	}
	if st := d.Stats(); st.KernelLaunches != 0 {
		t.Fatalf("zero-item launch must not count: %+v", st)
	}
}

func TestLaunchNegativeItems(t *testing.T) {
	d := MustNew(SmallTestDevice(), true)
	if _, err := d.Launch(Kernel{Name: "neg", Items: -1}.over(func(int) {})); err == nil {
		t.Fatal("negative item count must fail")
	}
}

func TestLaunchRegsExceedHardwareCap(t *testing.T) {
	cfg := SmallTestDevice()
	d := MustNew(cfg, true)
	k := Kernel{Name: "greedy", Items: 4, RegsPerThread: cfg.MaxRegistersPerThread + 1}
	_, err := d.Launch(k.over(func(int) {}))
	if err == nil || !strings.Contains(err.Error(), "regs/thread") {
		t.Fatalf("over-cap register demand must fail with the cap error, got %v", err)
	}
	if st := d.Stats(); st.KernelLaunches != 0 || st.LaunchFailures != 0 {
		// A rejected misconfiguration is a caller error, not a device fault.
		t.Fatalf("rejected launch must not touch fault accounting: %+v", st)
	}
}

// TestOccupancyRegisterFloor: a kernel whose register demand exceeds what the
// register file can hold for even one block still reports the one-warp floor
// utilization rather than zero or a panic.
func TestOccupancyRegisterFloor(t *testing.T) {
	cfg := SmallTestDevice() // 4096 regs/SM, 64 threads/SM, warp 8
	rm := NewResourceManager(cfg, true)
	// 128 regs × block of 64 threads = 8192 > 4096: no whole block fits.
	floor := float64(cfg.WarpSize) / float64(cfg.MaxThreadsPerSM)
	if occ := rm.Occupancy(64, cfg.MaxRegistersPerThread); occ != floor {
		t.Fatalf("occupancy %v, want one-warp floor %v", occ, floor)
	}
	if occ := rm.Occupancy(0, 1); occ != 0 {
		t.Fatalf("zero block size must report zero occupancy, got %v", occ)
	}
	// Occupancy never exceeds 1 even for tiny register demands.
	if occ := rm.Occupancy(32, 0); occ <= 0 || occ > 1 {
		t.Fatalf("occupancy out of range: %v", occ)
	}
}

func TestPickBlockSizeBounds(t *testing.T) {
	cfg := SmallTestDevice()
	fine := NewResourceManager(cfg, true)
	if bs := fine.PickBlockSize(0, 8); bs < 32 {
		t.Fatalf("zero tasks must still yield a valid block size, got %d", bs)
	}
	coarse := NewResourceManager(cfg, false)
	if bs := coarse.PickBlockSize(1000, 8); bs != cfg.MaxThreadsPerSM {
		// The fixed block size of 1024 clamps to the SM capacity of the test device.
		t.Fatalf("coarse block size %d, want SM clamp %d", bs, cfg.MaxThreadsPerSM)
	}
}
