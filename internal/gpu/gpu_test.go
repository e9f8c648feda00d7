package gpu

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	if err := RTX3090().Validate(); err != nil {
		t.Fatalf("RTX3090 config invalid: %v", err)
	}
	bad := RTX3090()
	bad.SMs = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero SMs should be invalid")
	}
	bad = RTX3090()
	bad.TransferBytesPerSec = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero transfer rate should be invalid")
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	if _, err := New(Config{}, true); err == nil {
		t.Fatal("New should reject a zero config")
	}
}

func TestLaunchRunsEveryItem(t *testing.T) {
	d := MustNew(SmallTestDevice(), true)
	const n = 1000
	var hits [n]int32
	occ, err := d.Launch(Kernel{Name: "touch", Items: n, RegsPerThread: 32, WordOps: 10}.over(
		func(i int) { atomic.AddInt32(&hits[i], 1) }))
	if err != nil {
		t.Fatal(err)
	}
	if occ <= 0 || occ > 1 {
		t.Fatalf("occupancy out of range: %v", occ)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("item %d executed %d times", i, h)
		}
	}
	s := d.Stats()
	if s.KernelLaunches != 1 || s.ThreadsExecuted != n {
		t.Fatalf("stats = %+v", s)
	}
	if s.SimComputeTime <= 0 {
		t.Fatal("simulated compute time not accounted")
	}
}

// TestConcurrentLaunchesRunEveryItemOnce: launches from several goroutines at
// once draw their states from one pool. Each launch runs each of its items
// exactly once and returns only after every lane has, so a state goes back to
// the pool only once no worker reads it: the counts are plain ints, read after
// each launch returns, and the race detector sees any lane still writing.
func TestConcurrentLaunchesRunEveryItemOnce(t *testing.T) {
	d := MustNew(SmallTestDevice(), true)
	const launchers, launches, items = 4, 50, 64
	errs := make(chan error, launchers)
	var wg sync.WaitGroup
	for g := 0; g < launchers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ran [items]int
			k := Kernel{Name: "concurrent", Items: items, RegsPerThread: 16, WordOps: 4}.over(func(i int) { ran[i]++ })
			for l := 1; l <= launches; l++ {
				if _, err := d.Launch(k); err != nil {
					errs <- err
					return
				}
				for i, n := range ran {
					if n != l {
						errs <- fmt.Errorf("launch %d returned with item %d run %d times", l, i, n)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestLaunchZeroItems(t *testing.T) {
	d := MustNew(SmallTestDevice(), true)
	if _, err := d.Launch(Kernel{Name: "empty"}.over(func(int) { t.Fatal("should not run") })); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchRejectsExcessRegisters(t *testing.T) {
	d := MustNew(SmallTestDevice(), true)
	_, err := d.Launch(Kernel{Name: "fat", Items: 1, RegsPerThread: 10000}.over(func(int) {}))
	if err == nil {
		t.Fatal("register demand over the per-thread cap should fail")
	}
}

func TestTransferAccounting(t *testing.T) {
	d := MustNew(SmallTestDevice(), true)
	d.CopyToDevice(1 << 20)
	d.CopyFromDevice(1 << 19)
	s := d.Stats()
	if s.BytesHostToDev != 1<<20 || s.BytesDevToHost != 1<<19 {
		t.Fatalf("byte counters wrong: %+v", s)
	}
	if s.SimTransferTime <= 0 {
		t.Fatal("transfer time not accounted")
	}
	d.ResetStats()
	if d.Stats().BytesHostToDev != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
}

func TestOccupancyMonotoneInRegisters(t *testing.T) {
	rm := NewResourceManager(RTX3090(), true)
	prev := 2.0
	for _, regs := range []int{16, 32, 64, 128, 255} {
		occ := rm.Occupancy(256, regs)
		if occ > prev {
			t.Fatalf("occupancy increased with register pressure at %d regs", regs)
		}
		prev = occ
	}
	if rm.Occupancy(0, 32) != 0 {
		t.Fatal("zero block size should give zero occupancy")
	}
}

func TestPickBlockSizePolicies(t *testing.T) {
	cfg := RTX3090()
	fine := NewResourceManager(cfg, true)
	coarse := NewResourceManager(cfg, false)
	if got := coarse.PickBlockSize(1<<20, 200); got != 1024 {
		t.Fatalf("coarse policy should return the fixed size, got %d", got)
	}
	// Heavy register demand: fine policy should avoid giant blocks.
	bs := fine.PickBlockSize(1<<20, 200)
	if fine.Occupancy(bs, 200) < fine.Occupancy(1024, 200) {
		t.Fatalf("fine policy picked %d with worse occupancy than 1024", bs)
	}
	// Few tasks: block should shrink so all SMs get work.
	small := fine.PickBlockSize(cfg.SMs*32, 32)
	if (cfg.SMs*32+small-1)/small < cfg.SMs {
		t.Fatalf("small task count left SMs idle: block %d", small)
	}
}

func TestFinePolicyBeatsCoarseUtilization(t *testing.T) {
	// The Fig. 6 mechanism: for register-heavy HE kernels, the fine-grained
	// manager must achieve at least the coarse manager's occupancy.
	cfg := RTX3090()
	fine := NewResourceManager(cfg, true)
	coarse := NewResourceManager(cfg, false)
	for _, regs := range []int{40, 80, 120, 200, 255} {
		fb := fine.PickBlockSize(1<<20, regs)
		fo := fine.Occupancy(fb, regs)
		co := coarse.Occupancy(coarse.PickBlockSize(1<<20, regs), regs)
		if fo < co {
			t.Fatalf("fine occupancy %v < coarse %v at %d regs", fo, co, regs)
		}
	}
}

func TestBranchCostPolicies(t *testing.T) {
	fine := NewResourceManager(SmallTestDevice(), true)
	coarse := NewResourceManager(SmallTestDevice(), false)
	if e, r := fine.BranchCost(0); e != 1 || r != 1 {
		t.Fatalf("no divergence should be free, got %v/%v", e, r)
	}
	fe, fr := fine.BranchCost(4)
	ce, cr := coarse.BranchCost(4)
	if fr != 1 || cr <= 1 {
		t.Fatalf("register factors: fine %v, coarse %v", fr, cr)
	}
	if fe > ce+2 {
		t.Fatalf("fine branch handling should not cost more: %v vs %v", fe, ce)
	}
}

func TestPropertyOccupancyBounded(t *testing.T) {
	rm := NewResourceManager(RTX3090(), true)
	f := func(bs uint8, regs uint8) bool {
		occ := rm.Occupancy(int(bs), int(regs))
		return occ >= 0 && occ <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// BenchmarkLaunch is what a launch costs beyond its lanes: an empty body over
// 1, 4 and 64 items — one chunk, on the launching goroutine, then a chunk a
// host worker. -benchmem reads 0 B/op on every row.
func BenchmarkLaunch(b *testing.B) {
	d := MustNew(RTX3090(), true)
	for _, items := range []int{1, 4, 64} {
		k := Kernel{Name: "noop", Items: items, RegsPerThread: 32, WordOps: 1}.over(func(int) {})
		b.Run(fmt.Sprintf("items=%d", items), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.Launch(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
