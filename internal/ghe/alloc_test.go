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

// TestModMulVecAllocCeiling pins a ModMulVec launch of w elements at w + 2 heap
// allocations — the products, the vector they come back in and the descriptor
// (a backend's call states its op in a pooled frame and is pinned a value
// lower, in internal/paillier); the Montgomery form of one operand stays in
// the pooled scratch, the launch itself allocates nothing and the executor's
// bookkeeping is engine state — on the executor over one device and on the
// host loop.
func TestModMulVecAllocCeiling(t *testing.T) {
	r := mpint.NewRNG(77)
	n := r.RandBits(2048)
	n[0] |= 1
	m := mpint.NewMont(n)
	a, b := randVec(r, 128, n), randVec(r, 128, n)
	cfg := gpu.RTX3090()
	cfg.HostWorkers = 1 // AllocsPerRun counts the whole process
	checked := executorOn(t, cfg, 1, CheckedConfig{})
	for name, eng := range map[string]vecEngine{"executor": checked, "host": hostLoop{}} {
		for _, width := range []int{4, 128} {
			got := testing.AllocsPerRun(5, func() {
				if _, err := eng.ModMulVec(a[:width], b[:width], m); err != nil {
					t.Fatal(err)
				}
			})
			if got > float64(width+2) {
				t.Errorf("%s ModMulVec: %.0f allocs at width %d, ceiling %d", name, got, width, width+2)
			}
		}
	}
}

// TestMultiExpVecAllocCeiling pins a weighted-sum launch at one heap allocation
// a sum — its residue — plus a constant that does not grow with the launch:
// the table comes out of the context's pool and goes back, and the lanes walk
// on pooled scratch. The tree of MulPlainVec and AddVec launches it replaces
// allocated about three values a term.
func TestMultiExpVecAllocCeiling(t *testing.T) {
	r := mpint.NewRNG(79)
	n := r.RandBits(2048)
	n[0] |= 1
	m := mpint.NewMont(n)
	bases := randVec(r, 32, n)
	sums := weightedSums(r, len(bases), 16, 10)
	cfg := gpu.RTX3090()
	cfg.HostWorkers = 1 // AllocsPerRun counts the whole process
	checked := executorOn(t, cfg, 1, CheckedConfig{})
	for name, eng := range map[string]vecEngine{"executor": checked, "host": hostLoop{}} {
		allocs := func(width int) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := eng.MultiExpVec(bases, sums[:width], m); err != nil {
					t.Fatal(err)
				}
			})
		}
		wide, narrow := allocs(16), allocs(8)
		t.Logf("%s MultiExpVec: %.0f allocs at 16 sums, %.0f at 8", name, wide, narrow)
		if per := (wide - narrow) / 8; per > 1 {
			t.Errorf("%s MultiExpVec: %.2f allocs per sum, ceiling 1", name, per)
		}
		if narrow > 8+8 {
			t.Errorf("%s MultiExpVec: %.0f allocs for 8 sums, ceiling 8 + 8 a launch", name, narrow)
		}
	}
}

// TestCheckedOverheadOverLaunch pins what the executor costs on top of the
// launch it schedules: a small op on a one-device set — the default wiring of
// every GPU profile — may make at most two more allocations and 64 more bytes
// than the same op stated alone and launched once on the member's device
// (member.launch: no shard, no verification, no retry). The bound comes from
// the repository benchmark: cohort_tree_128 runs 1,025 launches a step and
// allows alloc_mb_per_step 5%, about 71 B an op (2,049 launches and 58 B
// before an encryption was one launch). Scheduler bookkeeping
// rebuilt per op (maps, a goroutine and a WaitGroup for a one-device wave, a
// second output vector copied shard by shard) costs 17 allocations and 784 B.
func TestCheckedOverheadOverLaunch(t *testing.T) {
	r := mpint.NewRNG(78)
	n := r.RandBits(256)
	n[0] |= 1
	m := mpint.NewMont(n)
	a, b := randVec(r, 4, n), randVec(r, 4, n)
	cfg := gpu.RTX3090()
	cfg.HostWorkers = 1 // AllocsPerRun counts the whole process
	checked := executorOn(t, cfg, 1, CheckedConfig{})
	measure := func(modMul func() error) (allocs, bytes float64) {
		op := func() {
			if err := modMul(); err != nil {
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
	mb := executorOn(t, cfg, 1, CheckedConfig{}).members[0]
	launchAllocs, launchBytes := measure(func() error { return mb.launch(&modMulOp{newModVec(len(a), m), a, b}, nil) })
	allocs, bytes := measure(func() error { _, err := checked.ModMulVec(a, b, m); return err })
	t.Logf("one launch %.0f allocs / %.0f B an op, executor at D=1 %.0f / %.0f", launchAllocs, launchBytes, allocs, bytes)
	if allocs > launchAllocs+2 || bytes > launchBytes+64 {
		t.Errorf("executor at D=1: %.0f allocs / %.0f B an op, one launch %.0f / %.0f: ceiling +2 / +64 B",
			allocs, bytes, launchAllocs, launchBytes)
	}
}

// TestGroupedLaunchAllocCeiling pins launches whose lanes run eight at a time
// on the multi-buffer kernel — a shared-modulus exponentiation, an encryption
// under either handle (the holder's through the factorisation, anyone else's
// as the n² window, its nonce drawn and checked in the lane's scratch), a
// decryption, a candidate's later Miller–Rabin rounds, all at 1,024 bits,
// where a full group of 20- or 40-digit chains walks — at their
// results: the transposed operands, the tables and the kernel's scratch come
// from a pool every worker shares, so a launch of sixteen items, two groups,
// allocates one value an item more than a launch of eight, and beside its
// results at most the launch's own constant — the descriptor, the vector and
// the compiled schedule of an op stated outside a frame; the candidate a
// launch of rounds sets up (its Montgomery context, its digit constants in one
// lane and in eight, its schedule).
func TestGroupedLaunchAllocCeiling(t *testing.T) {
	r := mpint.NewRNG(80)
	crt, n2 := testCRT(t, r, 1024)
	key, ok := decKey(crt, crt.P().N(), crt.Q().N())
	if !ok {
		t.Fatal("the test key has no decryption constants")
	}
	m := mpint.NewMont(mpint.Mul(crt.P().N(), crt.P().N())) // p², 1,024 bits: 20 digits
	bases, exp := randVec(r, 16, m.N()), r.RandBits(512)
	ms := randVec(r, 16, crt.N())
	cts := textbookEncrypt(ms, crt.N(), 5)
	cand := r.RandPrime(512)
	as := make([]mpint.Nat, 16)
	for i := range as {
		as[i] = mpint.AddWord(r.RandBelow(mpint.SubWord(cand, 3)), 2)
	}
	holder, public := encKey(crt, n2, true), encKey(crt, n2, false)
	cfg := gpu.RTX3090()
	cfg.HostWorkers = 1 // AllocsPerRun counts the whole process
	eng := executorOn(t, cfg, 1, CheckedConfig{})
	framed := func(w int, op func(f *Frame) ([]mpint.Nat, error)) func() {
		return func() {
			f := eng.Frame(w)
			defer f.Release()
			if _, err := op(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		op     string
		launch func(w int) func()
		fixed  float64
	}{
		{"mod_exp_vec", func(w int) func() {
			return func() {
				if _, err := eng.ModExpVec(bases[:w], exp, m); err != nil {
					t.Fatal(err)
				}
			}
		}, 4},
		{"encrypt_vec", func(w int) func() {
			return framed(w, func(f *Frame) ([]mpint.Nat, error) { return f.encryptVec(ms[:w], holder, 5) })
		}, 0},
		{"encrypt_vec (public)", func(w int) func() {
			return framed(w, func(f *Frame) ([]mpint.Nat, error) { return f.encryptVec(ms[:w], public, 5) })
		}, 0},
		{"decrypt_crt_vec", func(w int) func() {
			return framed(w, func(f *Frame) ([]mpint.Nat, error) { return f.DecryptVec(cts[:w], key) })
		}, 0},
		{"miller_rabin_vec", func(w int) func() {
			return framed(w, func(f *Frame) ([]mpint.Nat, error) { return f.MillerRabinVec([]mpint.Nat{cand}, as[:w]) })
		}, 64},
	} {
		eight, sixteen := testing.AllocsPerRun(5, tc.launch(8)), testing.AllocsPerRun(5, tc.launch(16))
		t.Logf("%s: %.0f allocs at 8 items, %.0f at 16", tc.op, eight, sixteen)
		if per := (sixteen - eight) / 8; per > 1 {
			t.Errorf("%s: %.2f allocs an item, ceiling 1", tc.op, per)
		}
		if sixteen > 16+tc.fixed {
			t.Errorf("%s: %.0f allocs for 16 items, ceiling 16 + %.0f", tc.op, sixteen, tc.fixed)
		}
	}
}
