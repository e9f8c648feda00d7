package ghe

import (
	"sync"
	"testing"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// testExecutor is the executor over d devices with a fifth of every
// shard verified.
func testExecutor(t testing.TB, d int) *CheckedEngine {
	t.Helper()
	return checkedSet(t, d, CheckedConfig{VerifyFraction: 0.2, VerifySeed: 11})
}

func sameVec(t *testing.T, tag string, got, want []mpint.Nat) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if mpint.Cmp(got[i], want[i]) != 0 {
			t.Fatalf("%s: element %d differs", tag, i)
		}
	}
}

// TestShardedMatchesSequentialEveryOp: every sharded vector op is bit-exact
// with the unverified executor on one device across D ∈ {1,2,4,8}, lengths
// chosen to hit uneven shard splits and D > len.
func TestShardedMatchesSequentialEveryOp(t *testing.T) {
	r := mpint.NewRNG(5)
	nmod := r.RandPrime(128)
	m := mpint.NewMont(nmod)
	crt, n2 := testCRT(t, r, 128)
	seq := testEngine(t)

	for _, d := range []int{1, 2, 4, 8} {
		for _, n := range []int{1, 3, 37} {
			sh := testExecutor(t, d)
			rr := mpint.NewRNG(9)
			bases := randVec(rr, n, nmod)
			exps := make([]mpint.Nat, n)
			for i := range exps {
				exps[i] = rr.RandBits(1 + rr.Intn(96))
			}
			exp := rr.RandBits(96)
			b2 := randVec(rr, n, nmod)

			want, err := seq.ModExpVec(bases, exp, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sh.ModExpVec(bases, exp, m)
			if err != nil {
				t.Fatalf("D=%d n=%d ModExpVec: %v", d, n, err)
			}
			sameVec(t, "mod_exp_vec", got, want)

			// Both handles against the textbook expression under the stream's
			// nonces: a shard draws what the whole batch would at its positions.
			xs := randVec(rr, n, crt.N())
			want = textbookEncrypt(xs, crt.N(), 77)
			for _, holder := range []bool{true, false} {
				got, err = sh.EncryptVec(xs, encKey(crt, n2, holder), 77)
				if err != nil {
					t.Fatalf("D=%d n=%d EncryptVec (holder %v): %v", d, n, holder, err)
				}
				sameVec(t, "encrypt_vec", got, want)
			}

			want, err = seq.ModExpVarVec(bases, exps, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err = sh.ModExpVarVec(bases, exps, m)
			if err != nil {
				t.Fatalf("D=%d n=%d ModExpVarVec: %v", d, n, err)
			}
			sameVec(t, "mod_exp_var_vec", got, want)

			want, err = seq.ModMulVec(bases, b2, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err = sh.ModMulVec(bases, b2, m)
			if err != nil {
				t.Fatalf("D=%d n=%d ModMulVec: %v", d, n, err)
			}
			sameVec(t, "mod_mul_vec", got, want)

			// n sums over the n bases: a shard plans and builds its own table.
			sums := weightedSums(rr, n, n, 20)
			want, err = seq.MultiExpVec(bases, sums, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err = sh.MultiExpVec(bases, sums, m)
			if err != nil {
				t.Fatalf("D=%d n=%d MultiExpVec: %v", d, n, err)
			}
			sameVec(t, "multi_exp_vec", got, want)

			// Table I's arithmetic ops, per-item and shared second operand, and
			// Miller–Rabin rounds over n candidates and over one.
			want, err = seq.MulVec(bases, exps)
			if err != nil {
				t.Fatal(err)
			}
			got, err = sh.MulVec(bases, exps)
			if err != nil {
				t.Fatalf("D=%d n=%d MulVec: %v", d, n, err)
			}
			sameVec(t, "mul_vec", got, want)

			want, err = seq.ModVec(xs, nmod)
			if err != nil {
				t.Fatal(err)
			}
			got, err = sh.ModVec(xs, nmod)
			if err != nil {
				t.Fatalf("D=%d n=%d ModVec: %v", d, n, err)
			}
			sameVec(t, "mod_vec", got, want)

			cands, wits := mrOperands(r, n, 40)
			for _, cs := range [][]mpint.Nat{cands, cands[:1]} {
				want, err = seq.Frame(n).MillerRabinVec(cs, wits)
				if err != nil {
					t.Fatal(err)
				}
				got, err = sh.Frame(n).MillerRabinVec(cs, wits)
				if err != nil {
					t.Fatalf("D=%d n=%d MillerRabinVec over %d candidates: %v", d, n, len(cs), err)
				}
				sameVec(t, "miller_rabin_vec", got, want)
			}
		}
	}
}

// TestShardedMidBatchKill: a device that dies mid-batch loses its shards to
// healthy peers and the result stays bit-exact with the one-device executor.
func TestShardedMidBatchKill(t *testing.T) {
	r := mpint.NewRNG(6)
	nmod := r.RandPrime(128)
	m := mpint.NewMont(nmod)
	const n = 40
	bases := randVec(r, n, nmod)
	exp := r.RandBits(96)

	seq := testEngine(t)
	want, err := seq.ModExpVec(bases, exp, m)
	if err != nil {
		t.Fatal(err)
	}

	sh := testExecutor(t, 4)
	// Short backoff keeps the test fast; the scheduler's correctness must not
	// depend on the retry budget's timing.
	sh.Devices()[2].SetFaultInjector(gpu.NewFaultInjector(gpu.FaultConfig{Seed: 3, KillAtLaunch: 1}))
	got, err := sh.ModExpVec(bases, exp, m)
	if err != nil {
		t.Fatalf("sharded op with dead device: %v", err)
	}
	sameVec(t, "mod_exp_vec under kill", got, want)

	st := sh.Stats()
	if st.Steals == 0 {
		t.Fatalf("expected stolen shards, stats %+v", st)
	}
	if st.LaunchFaults == 0 || sh.Devices()[2].Health() != gpu.DeviceFailed {
		t.Fatalf("checked layer should have observed the faults: %+v", st)
	}
	// The scheduler owns failover: the dead member's shard went to its peers,
	// not to the host, and served directly the member surfaces a typed fault —
	// never a silent host result.
	if st.HostShards != 0 {
		t.Fatalf("a member served its shard from the host: %+v", st)
	}
	op := &modExpOp{newModVec(4, m), bases[:4], exp, mpint.CompileExpAuto(exp)}
	if err := sh.members[2].serve(op, &sh.cfg, nil); !gpu.IsKernelError(err) {
		t.Fatalf("dead member returned %v, want a typed *gpu.KernelError", err)
	}
	if st := sh.Stats(); st.HostShards != 0 {
		t.Fatalf("the member path must never serve from the host: %+v", st)
	}
	// Subsequent ops skip the dead device entirely and still match.
	got2, err := sh.ModExpVec(bases, exp, m)
	if err != nil {
		t.Fatal(err)
	}
	sameVec(t, "mod_exp_vec after kill", got2, want)
}

// TestShardedAllDevicesDeadFallsBackToHost: killing the whole fleet routes the
// op through the host loop, still bit-exact with it.
func TestShardedAllDevicesDeadFallsBackToHost(t *testing.T) {
	r := mpint.NewRNG(7)
	nmod := r.RandPrime(96)
	m := mpint.NewMont(nmod)
	const n = 12
	bases := randVec(r, n, nmod)
	exp := r.RandBits(64)

	sh := testExecutor(t, 2)
	for i := 0; i < 2; i++ {
		sh.Devices()[i].SetFaultInjector(gpu.NewFaultInjector(gpu.FaultConfig{Seed: uint64(i + 1), KillAtLaunch: 1}))
	}
	want, err := hostLoop{}.ModExpVec(bases, exp, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sh.ModExpVec(bases, exp, m)
	if err != nil {
		t.Fatalf("host fallback: %v", err)
	}
	sameVec(t, "host fallback", got, want)
	if st := sh.Stats(); st.HostShards == 0 {
		t.Fatalf("expected host-served shards: %+v", st)
	}
}

// TestShardedConcurrentCallers: the executor keeps the op in flight as engine
// state, so callers on several goroutines must serialise on it and each get
// its own op's vector back.
func TestShardedConcurrentCallers(t *testing.T) {
	r := mpint.NewRNG(8)
	nmod := r.RandPrime(96)
	m := mpint.NewMont(nmod)
	seq := testEngine(t)
	sh := testExecutor(t, 3)
	const callers = 8
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		a, b := randVec(r, 5+g, nmod), randVec(r, 5+g, nmod)
		want, err := seq.ModMulVec(a, b, m)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				got, err := sh.ModMulVec(a, b, m)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range want {
					if mpint.Cmp(got[i], want[i]) != 0 {
						t.Errorf("caller with %d items: element %d is another op's", len(a), i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := sh.Stats(); st.Ops != callers*20 {
		t.Fatalf("%d ops counted, want %d", st.Ops, callers*20)
	}
}
