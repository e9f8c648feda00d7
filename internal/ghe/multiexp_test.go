package ghe

import (
	"errors"
	"fmt"
	"math/big"
	"slices"
	"strings"
	"testing"
	"time"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
	"flbooster/internal/obs"
)

// weightedSums builds `sums` dense combinations of n bases with weights of up
// to `bits` bits, the first and last weight of every sum forced to 0 and 1.
func weightedSums(r *mpint.RNG, n, sums, bits int) [][]mpint.Term {
	out := make([][]mpint.Term, sums)
	for j := range out {
		for i := 0; i < n; i++ {
			out[j] = append(out[j], mpint.Term{Index: i, Weight: r.RandBits(bits)[0]})
		}
		out[j][0].Weight, out[j][n-1].Weight = 0, 1
	}
	return out
}

// multiExpOracle is what the kernel replaces, term by term: an exponentiation
// a term and a product to fold each in.
func multiExpOracle(m *mpint.Mont, bases []mpint.Nat, sums [][]mpint.Term) []mpint.Nat {
	out := make([]mpint.Nat, len(sums))
	for j, sum := range sums {
		out[j] = mpint.One()
		for _, t := range sum {
			out[j] = mpint.ModMul(out[j], m.Exp(bases[t.Index], mpint.FromUint64(t.Weight)), m.N())
		}
	}
	return out
}

// TestMultiExpVecEveryEngine: the kernel equals the term-by-term oracle on the
// executor over one device unverified, the host loop and the executor over 1,
// 2 and 3 devices with every lane verified; the launch shows up under its two
// kernel names in the trace and its table in the member's table counters.
func TestMultiExpVecEveryEngine(t *testing.T) {
	r := mpint.NewRNG(0x3E)
	n := r.RandPrime(192)
	m := mpint.NewMont(n)
	bases := randVec(r, 12, n)
	sums := append(weightedSums(r, len(bases), 7, 10), nil, []mpint.Term{{Index: 3, Weight: 0}})
	want := multiExpOracle(m, bases, sums)

	eng := testEngine(t)
	dev := eng.Devices()[0]
	rec := obs.NewRecorder(1)
	dev.SetRecorder(rec, "test.gpu")
	got, err := eng.MultiExpVec(bases, sums, m)
	if err != nil {
		t.Fatal(err)
	}
	sameVec(t, "executor at D=1", got, want)
	names := map[string]int{}
	for _, s := range rec.Spans() {
		names[s.Phase]++
	}
	if names["multi_exp_table"] != 1 || names["multi_exp_vec"] != 1 {
		t.Errorf("trace spans %v, want one multi_exp_table and one multi_exp_vec", names)
	}
	// Base 0 carries a zero weight in every sum and gets no row; the other 11
	// under 10-bit weights over 7·11 terms run at width 3, four odd powers each.
	if ts := eng.members[0].table; ts.builds != 1 || ts.entries != 11*4 || ts.ops != int64(len(sums)) {
		t.Errorf("table stats %+v, want 1 build of 44 entries serving %d sums", ts, len(sums))
	}
	if st := dev.Stats(); st.KernelLaunches != 2 {
		t.Errorf("%d kernel launches, want the table and the lanes", st.KernelLaunches)
	}

	got, err = hostLoop{}.MultiExpVec(bases, sums, m)
	if err != nil {
		t.Fatal(err)
	}
	sameVec(t, "host loop", got, want)
	for _, d := range []int{1, 2, 3} {
		chk := checkedSet(t, d, CheckedConfig{VerifyFraction: 1})
		got, err := chk.MultiExpVec(bases, sums, m)
		if err != nil {
			t.Fatalf("D=%d: %v", d, err)
		}
		sameVec(t, "executor", got, want)
		if st, dev := chk.Stats(), gpu.Sum(chk.Devices()); st.VerifySamples != int64(len(sums)) || dev.FaultCorruptions != 0 {
			t.Errorf("D=%d: %d lanes verified, %d failed, want %d and 0", d, st.VerifySamples, dev.FaultCorruptions, len(sums))
		}
	}

	// No sums: no launch, nothing charged.
	before := dev.Stats()
	if got, err := eng.MultiExpVec(bases, nil, m); err != nil || got != nil {
		t.Errorf("no sums: %d results, error %v", len(got), err)
	}
	if after := dev.Stats(); after.KernelLaunches != before.KernelLaunches || after.BytesHostToDev != before.BytesHostToDev {
		t.Error("no sums still reached the device")
	}
}

// TestMultiExpVecRejectsBeforeUpload: a term outside the base vector is a
// typed error, and nothing has been copied or launched when it surfaces.
func TestMultiExpVecRejectsBeforeUpload(t *testing.T) {
	m := mpint.NewMont(mpint.FromUint64(1000003))
	bases := []mpint.Nat{mpint.FromUint64(2), mpint.FromUint64(3)}
	chk := checkedSet(t, 1, CheckedConfig{})
	for _, sums := range [][][]mpint.Term{
		{{{Index: 0, Weight: 1}}, {{Index: 2, Weight: 1}}},
		{{{Index: -1, Weight: 5}}},
	} {
		got, err := chk.MultiExpVec(bases, sums, m)
		if !errors.Is(err, mpint.ErrTermIndex) || got != nil {
			t.Errorf("sums %v: %d results, error %v, want ErrTermIndex", sums, len(got), err)
		}
	}
	if st := chk.Devices()[0].Stats(); st.KernelLaunches != 0 || st.BytesHostToDev != 0 || chk.Stats().Ops != 0 {
		t.Errorf("rejected sums reached the device: %+v", st)
	}
}

// TestSignedMultiExpVec holds signed terms to math/big — Exp over ModInverse
// for a negative one — on the executor at D = 1 unverified, the host loop and
// the executor at D = 1 and 2 with every lane verified: mixed-sign sums, all-negative sums and
// a base both signs refer to. The table builds one inverted row a base a
// negative term refers to, and its set-up launch is charged the inversions
// on top of the rows' multiplies. A negative term over a base with no inverse
// is mpint.ErrNotInvertible on every engine, and no lane runs.
func TestSignedMultiExpVec(t *testing.T) {
	r := mpint.NewRNG(0x51E)
	p := r.RandPrime(96)
	n := mpint.Mul(p, r.RandPrime(96))
	m := mpint.NewMont(n)
	bases := randVec(r, 10, n)
	mixed := weightedSums(r, len(bases), 4, 10)
	for _, sum := range mixed {
		for i := range sum {
			sum[i].Neg = r.Intn(2) == 0
		}
	}
	allNeg := weightedSums(r, len(bases), 2, 10)
	for _, sum := range allNeg {
		for i := range sum {
			sum[i].Neg = true
		}
	}
	sums := append(append(mixed, allNeg...),
		[]mpint.Term{{Index: 3, Weight: 7}, {Index: 3, Weight: 5, Neg: true}, {Index: 5, Weight: 1, Neg: true}})
	bn := toBig(n)
	want := make([]mpint.Nat, len(sums))
	for j, sum := range sums {
		prod := big.NewInt(1)
		for _, tm := range sum {
			base := toBig(bases[tm.Index])
			if tm.Neg {
				base.ModInverse(base, bn)
			}
			prod.Mod(prod.Mul(prod, new(big.Int).Exp(base, new(big.Int).SetUint64(tm.Weight), bn)), bn)
		}
		want[j] = mpint.FromBytes(prod.Bytes())
	}

	eng := testEngine(t)
	dev := eng.Devices()[0]
	got, err := eng.MultiExpVec(bases, sums, m)
	if err != nil {
		t.Fatal(err)
	}
	sameVec(t, "executor at D=1", got, want)
	tbl, err := m.NewMultiExpTable(bases, sums)
	if err != nil {
		t.Fatal(err)
	}
	// Base 0 has a zero weight in every sum; the other nine are referred to
	// by both signs.
	if tbl.Inversions() != 9 || tbl.Rows() != 18 {
		t.Errorf("%d inverted rows of %d, want 9 of 18", tbl.Inversions(), tbl.Rows())
	}
	tbl.Release()
	// The same table build, every row inverted and then none: the inversions
	// are what the modelled clock charges more.
	pos := make([][]mpint.Term, len(allNeg))
	for j, sum := range allNeg {
		pos[j] = slices.Clone(sum)
		for i := range pos[j] {
			pos[j][i].Neg = false
		}
	}
	tableSim := func(sums [][]mpint.Term) time.Duration {
		tbl, err := m.NewMultiExpTable(bases, sums)
		if err != nil {
			t.Fatal(err)
		}
		defer tbl.Release()
		before := dev.Stats().SimComputeTime
		op := &multiExpOp{modVec: newModVec(len(sums), m), bases: bases, sums: sums, tbl: tbl}
		if _, err := op.setup(dev); err != nil {
			t.Fatal(err)
		}
		return dev.Stats().SimComputeTime - before
	}
	if inv, plain := tableSim(allNeg), tableSim(pos); inv <= plain {
		t.Errorf("a table of inverted rows is charged %v, the same rows uninverted %v", inv, plain)
	}

	got, err = hostLoop{}.MultiExpVec(bases, sums, m)
	if err != nil {
		t.Fatal(err)
	}
	sameVec(t, "host loop", got, want)
	for _, d := range []int{1, 2} {
		chk := checkedSet(t, d, CheckedConfig{VerifyFraction: 1})
		got, err := chk.MultiExpVec(bases, sums, m)
		if err != nil {
			t.Fatalf("D=%d: %v", d, err)
		}
		sameVec(t, fmt.Sprintf("executor at D=%d", d), got, want)
		if st, dev := chk.Stats(), gpu.Sum(chk.Devices()); st.VerifySamples != int64(len(sums)) || dev.FaultCorruptions != 0 {
			t.Errorf("D=%d: %d lanes verified, %d failed, want %d and 0", d, st.VerifySamples, dev.FaultCorruptions, len(sums))
		}

		// A factor of n has no inverse mod n.
		bad := append(slices.Clone(bases), p)
		badSums := [][]mpint.Term{{{Index: 0, Weight: 3}, {Index: len(bad) - 1, Weight: 1, Neg: true}}, {{Index: len(bad) - 1, Weight: 2, Neg: true}}}
		if _, ok := mpint.ModInverse(bad[len(bad)-1], n); ok {
			t.Fatal("the planted base is invertible")
		}
		lanes := chk.Devices()[0].Stats().KernelLaunches
		if got, err := chk.MultiExpVec(bad, badSums, m); !errors.Is(err, mpint.ErrNotInvertible) || got != nil {
			t.Errorf("D=%d: a base with no inverse gave %d results, error %v, want ErrNotInvertible", d, len(got), err)
		}
		if after := chk.Devices()[0].Stats().KernelLaunches; after > lanes+1 {
			t.Errorf("D=%d: %d launches after a failed table, want the table's alone", d, after-lanes)
		}
		for name, e := range map[string]vecEngine{"executor at D=1": testEngine(t), "host loop": hostLoop{}} {
			if _, err := e.MultiExpVec(bad, badSums, m); !errors.Is(err, mpint.ErrNotInvertible) {
				t.Errorf("%s: a base with no inverse: error %v, want ErrNotInvertible", name, err)
			}
		}
	}
}

// TestMultiExpVecCheaperThanTheTree holds the modelled device to the point of
// the operator, at the shape of a Hetero LR host-batch: one launch and its
// table against a MulPlainVec and a log-depth tree of products per sum — fewer
// launches, fewer bytes either way, less modelled time.
func TestMultiExpVecCheaperThanTheTree(t *testing.T) {
	r := mpint.NewRNG(0x7EE)
	n := r.RandBits(2048)
	n[0] |= 1
	m := mpint.NewMont(n)
	bases := randVec(r, 32, n)
	sums := weightedSums(r, len(bases), 8, 10)

	kernel := executorOn(t, gpu.RTX3090(), 1, CheckedConfig{})
	got, err := kernel.MultiExpVec(bases, sums, m)
	if err != nil {
		t.Fatal(err)
	}
	tree := executorOn(t, gpu.RTX3090(), 1, CheckedConfig{})
	for j, sum := range sums {
		var sel, exps []mpint.Nat
		for _, tm := range sum {
			if tm.Weight != 0 {
				sel, exps = append(sel, bases[tm.Index]), append(exps, mpint.FromUint64(tm.Weight))
			}
		}
		work, err := tree.ModExpVarVec(sel, exps, m)
		if err != nil {
			t.Fatal(err)
		}
		for len(work) > 1 {
			half := len(work) / 2
			folded, err := tree.ModMulVec(work[:half], work[half:2*half], m)
			if err != nil {
				t.Fatal(err)
			}
			work = append(folded, work[2*half:]...)
		}
		if mpint.Cmp(work[0], got[j]) != 0 {
			t.Fatalf("sum %d: the kernel and the tree disagree", j)
		}
	}
	k, tr := kernel.Devices()[0].Stats(), tree.Devices()[0].Stats()
	t.Logf("kernel: %d launches, %d B up, %d B down, %v compute, %v transfer; tree: %d launches, %d B up, %d B down, %v compute, %v transfer",
		k.KernelLaunches, k.BytesHostToDev, k.BytesDevToHost, k.SimComputeTime, k.SimTransferTime,
		tr.KernelLaunches, tr.BytesHostToDev, tr.BytesDevToHost, tr.SimComputeTime, tr.SimTransferTime)
	if k.KernelLaunches != 2 || tr.KernelLaunches < 40 {
		t.Errorf("launches: kernel %d, tree %d, want 2 against 40 or more", k.KernelLaunches, tr.KernelLaunches)
	}
	if 3*k.BytesHostToDev > tr.BytesHostToDev || 3*k.BytesDevToHost > tr.BytesDevToHost {
		t.Errorf("bytes: kernel %d up / %d down, tree %d / %d, want a third or less", k.BytesHostToDev, k.BytesDevToHost, tr.BytesHostToDev, tr.BytesDevToHost)
	}
	if 2*k.SimTime() > tr.SimTime() || 2*k.SimComputeTime > tr.SimComputeTime {
		t.Errorf("modelled time: kernel %v (%v compute), tree %v (%v compute), want half or less", k.SimTime(), k.SimComputeTime, tr.SimTime(), tr.SimComputeTime)
	}
}

// TestCheckedMultiExpCatchesCorruption: a silently corrupted lane never gets
// past full verification — the check recomputes every term by plain
// exponentiation, sharing no table with the lanes — and the retry, which
// builds a table of its own, heals it. On a dead device a member's launch names
// the kernel that died in its typed error.
func TestCheckedMultiExpCatchesCorruption(t *testing.T) {
	c := checkedEngine(t,
		gpu.FaultConfig{Seed: 5, CorruptProb: 0.5},
		CheckedConfig{MaxRetries: 12, VerifyFraction: 1})
	c.Devices()[0].SetHealthPolicy(gpu.HealthPolicy{FailAfter: 1 << 30})
	r := mpint.NewRNG(0xC0)
	n := r.RandPrime(160)
	m := mpint.NewMont(n)
	bases := randVec(r, 9, n)
	sums := weightedSums(r, len(bases), 6, 12)
	want := multiExpOracle(m, bases, sums)
	for round := 0; round < 4; round++ {
		got, err := c.MultiExpVec(bases, sums, m)
		if err != nil {
			t.Fatal(err)
		}
		sameVec(t, "under corruption", got, want)
	}
	if st, dev := c.Stats(), gpu.Sum(c.Devices()); dev.FaultCorruptions == 0 || st.Retries == 0 {
		t.Errorf("injector never corrupted a launch at this seed: %+v, device %+v", st, dev)
	}

	// One attempt on a member whose device dies at the lanes' launch, then
	// on one whose device dies at the table's.
	launch := func(killAt int64) error {
		dead := testEngine(t)
		dead.Devices()[0].SetFaultInjector(gpu.NewFaultInjector(gpu.FaultConfig{Seed: 1, KillAtLaunch: killAt}))
		tbl, err := m.NewMultiExpTable(bases, sums)
		if err != nil {
			t.Fatal(err)
		}
		defer tbl.Release()
		return dead.members[0].launch(&multiExpOp{newModVec(len(sums), m), bases, sums, tbl}, nil)
	}
	err := launch(2)
	var kerr *gpu.KernelError
	if !errors.As(err, &kerr) || kerr.Kernel != "multi_exp_vec" || !strings.Contains(err.Error(), "multi_exp_vec") {
		t.Errorf("a device killed at the lanes' launch returned %v, want a KernelError naming multi_exp_vec", err)
	}
	if err = launch(1); !errors.As(err, &kerr) || kerr.Kernel != "multi_exp_table" {
		t.Errorf("a device killed at the table's launch returned %v, want a KernelError naming multi_exp_table", err)
	}
}
