package gpu

import (
	"sync/atomic"
	"testing"
)

// FuzzConfigValidate throws arbitrary device geometries and kernel parameters
// at the validation and resource-management paths. The contract under fuzz is
// crash-freedom: an invalid configuration must be rejected by Validate, and
// any configuration that validates must build a device whose occupancy math
// and (bounded) launches stay in range without panicking.
func FuzzConfigValidate(f *testing.F) {
	small := SmallTestDevice()
	f.Add(small.SMs, small.WarpSize, small.MaxThreadsPerSM,
		small.RegistersPerSM, small.MaxRegistersPerThread, 64, 16, 8)
	f.Add(0, 0, 0, 0, 0, -1, -1, -1)
	f.Add(1, 1, 1, 1, 1, 1, 1, 1)
	f.Fuzz(func(t *testing.T, sms, warp, threadsPerSM, regsPerSM, maxRegs,
		blockSize, regsPerThread, items int) {
		cfg := Config{
			SMs:                   sms,
			WarpSize:              warp,
			MaxThreadsPerSM:       threadsPerSM,
			RegistersPerSM:        regsPerSM,
			MaxRegistersPerThread: maxRegs,
			TransferBytesPerSec:   1e9,
			TransferLatencySec:    1e-6,
			WordOpsPerSec:         1e9,
			HostWorkers:           2,
		}
		if err := cfg.Validate(); err != nil {
			return
		}
		d, err := New(cfg, true)
		if err != nil {
			t.Fatalf("validated config rejected by New: %v", err)
		}
		rm := d.rm
		occ := rm.Occupancy(blockSize, regsPerThread)
		if occ < 0 || occ > 1 {
			t.Fatalf("occupancy %v out of [0,1] for block=%d regs=%d", occ, blockSize, regsPerThread)
		}
		if bs := rm.PickBlockSize(items, regsPerThread); bs <= 0 {
			t.Fatalf("PickBlockSize returned %d", bs)
		}
		// A bounded launch must either run or fail with an error — never panic.
		n := items % 64
		if n < 0 {
			n = -n
		}
		k := Kernel{Name: "fuzz_kernel", Items: n, RegsPerThread: regsPerThread % 512, WordOps: 3}
		var ran int64
		_, err = d.Launch(k.over(func(int) { atomic.AddInt64(&ran, 1) }))
		if err == nil && n > 0 && atomic.LoadInt64(&ran) != int64(n) {
			t.Fatalf("launch of %d items ran %d bodies", n, ran)
		}
	})
}
