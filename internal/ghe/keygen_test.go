package ghe

import (
	"errors"
	"fmt"
	"testing"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
	"flbooster/internal/obs"
)

// mrOperands is n odd bits-wide Miller–Rabin candidates, primes and
// composites by turns, and n bases every one of them takes: 2, the smallest
// candidate less 2, and draws in between.
func mrOperands(r *mpint.RNG, n, bits int) (cands, bases []mpint.Nat) {
	cands, bases = make([]mpint.Nat, n), make([]mpint.Nat, n)
	least := mpint.Nat(nil)
	for i := range cands {
		if i%2 == 0 {
			cands[i] = r.RandPrime(bits)
		} else {
			cands[i] = r.RandBits(bits)
			cands[i][0] |= 1
		}
		if least == nil || mpint.Cmp(cands[i], least) < 0 {
			least = cands[i]
		}
	}
	for i := range bases {
		bases[i] = mpint.AddWord(r.RandBelow(mpint.SubWord(least, 3)), 2)
	}
	bases[0] = mpint.FromUint64(2)
	if n > 1 {
		bases[1] = mpint.SubWord(least, 2)
	}
	return cands, bases
}

// lie plays a strong liar: one candidate in eight (by a hash of n) passes a
// round to a base with probability ≈ 0.85 whatever the arithmetic says, so
// composites pass round 0 and then fail — the rewind the window must get right.
// It is a function of (n, a) alone, so every runner sees the same lies.
func lie(n, a mpint.Nat) bool {
	mix := func(x mpint.Nat, h uint64) uint64 {
		for _, w := range x {
			h = (h ^ uint64(w)) * 0x100000001B3
		}
		return h ^ h>>29
	}
	hn := mix(n, 0xCBF29CE484222325)
	return hn%8 == 0 && mix(a, hn)%100 < 85
}

// lying is search with the liar's verdicts over its runner's.
func lying(search mpint.PrimeSearch) mpint.PrimeSearch {
	run := search.Run
	search.Run = func(ns, as []mpint.Nat, passed []bool) error {
		if err := run(ns, as, passed); err != nil {
			return err
		}
		for i, a := range as {
			passed[i] = passed[i] || lie(ns[min(i, len(ns)-1)], a)
		}
		return nil
	}
	return search
}

// sameWalk fails unless search draws the host walk's prime from the seed and
// leaves the generator where the host walk left it.
func sameWalk(t *testing.T, tag string, search, host mpint.PrimeSearch, seed uint64, bits int) {
	t.Helper()
	want, got := mpint.NewRNG(seed), mpint.NewRNG(seed)
	wantP, err := host.Prime(want, bits)
	if err != nil {
		t.Fatal(err)
	}
	p, err := search.Prime(got, bits)
	if err != nil {
		t.Fatalf("%s: seed %d, %d bits: %v", tag, seed, bits, err)
	}
	if mpint.Cmp(p, wantP) != 0 || *got != *want {
		t.Fatalf("%s: seed %d, %d bits: prime %s, the host walk drew %s (generators equal: %v)",
			tag, seed, bits, p, wantP, *got == *want)
	}
}

// TestExecutorWalkIsTheHostWalk: the prime search with its rounds launched on
// the executor draws the host walk's prime and leaves the generator where the
// host walk did, over 1,029 (width, seed) pairs — widths where trial division
// decides (4–12 bits) and past them, a third of them with a strong liar
// injected into both runners, so survivors pass round 0 and fail later rounds
// — a window a launch over 1, 2 and 3 devices, and again over one device that
// silently corrupts a third of its launches and aborts a tenth, every verdict
// verified.
func TestExecutorWalkIsTheHostWalk(t *testing.T) {
	faulty := checkedEngine(t, gpu.FaultConfig{Seed: 29, CorruptProb: 0.3, AbortProb: 0.1},
		CheckedConfig{VerifyFraction: 1, VerifySeed: 29, MaxRetries: 12})
	engines := []*CheckedEngine{checkedSet(t, 1, CheckedConfig{}), checkedSet(t, 2, CheckedConfig{}), checkedSet(t, 3, CheckedConfig{}), faulty}
	names := []string{"D=1", "D=2", "D=3", "D=1 under faults"}
	for i, eng := range engines {
		pairs := 0
		for bits := 4; bits <= 52; bits++ {
			for seed := uint64(0); seed < 21; seed++ {
				search, host, tag := eng.PrimeSearch(), mpint.HostSearch, names[i]
				if seed%3 == 0 {
					search, host, tag = lying(search), lying(host), tag+", lied to"
				}
				sameWalk(t, tag, search, host, seed, bits)
				pairs++
			}
		}
		if pairs < 1000 {
			t.Fatalf("%s: %d pairs", names[i], pairs)
		}
	}
	if st, dev := faulty.Stats(), gpu.Sum(faulty.Devices()); dev.FaultCorruptions == 0 || st.Retries == 0 || st.HostShards != 0 {
		t.Fatalf("want poisoned verdicts caught and retried on the device: %+v, device %+v", st, dev)
	}
	for i, eng := range engines[:3] {
		if st := eng.Stats(); st.Ops == 0 || (i > 0 && st.Shards <= st.Ops) {
			t.Fatalf("%s: the rounds were not sharded: %+v", names[i], st)
		}
	}
}

// TestRoundWindowFollowsTheWorkers: a launch tests a lane group of rounds a
// host worker of the executor's devices.
func TestRoundWindowFollowsTheWorkers(t *testing.T) {
	for d := 1; d <= 3; d++ {
		c := checkedSet(t, d, CheckedConfig{})
		if w, want := c.PrimeSearch().Window, gpu.LaneGroup*d*gpu.SmallTestDevice().HostWorkers; w != want {
			t.Errorf("D=%d: window %d, want %d", d, w, want)
		}
	}
}

// TestMillerRabinVecRejects: operands out of range reject typed with nothing
// launched.
func TestMillerRabinVecRejects(t *testing.T) {
	eng := testEngine(t)
	n := mpint.FromUint64(1009)
	for name, c := range map[string]struct {
		ns, as []mpint.Nat
		want   error
	}{
		"even candidate": {[]mpint.Nat{mpint.FromUint64(1008)}, []mpint.Nat{mpint.FromUint64(2)}, ErrWitness},
		"candidate 3":    {[]mpint.Nat{mpint.FromUint64(3)}, []mpint.Nat{mpint.FromUint64(2)}, ErrWitness},
		"base 1":         {[]mpint.Nat{n}, []mpint.Nat{mpint.One()}, ErrWitness},
		"base n−1":       {[]mpint.Nat{n}, []mpint.Nat{mpint.SubWord(n, 1)}, ErrWitness},
		"lengths":        {[]mpint.Nat{n, n}, []mpint.Nat{mpint.FromUint64(2), mpint.FromUint64(3), mpint.FromUint64(4)}, ErrLength},
	} {
		if _, err := eng.Frame(len(c.as)).MillerRabinVec(c.ns, c.as); !errors.Is(err, c.want) {
			t.Errorf("%s: error %v, want %v", name, err, c.want)
		}
	}
	if st := eng.Devices()[0].Stats(); st.KernelLaunches != 0 {
		t.Fatalf("rejected rounds launched %d kernels", st.KernelLaunches)
	}
}

// TestResetStatsRestartsTheSampler: after ResetStats the executor counts from
// zero, its table counters included, and samples the indices a fresh engine
// would.
func TestResetStatsRestartsTheSampler(t *testing.T) {
	used, fresh := checkedSet(t, 1, CheckedConfig{VerifyFraction: 0.3, VerifySeed: 4}), checkedSet(t, 1, CheckedConfig{VerifyFraction: 0.3, VerifySeed: 4})
	r := mpint.NewRNG(1)
	a := randVec(r, 40, mpint.FromUint64(1<<40))
	if _, err := used.AddVec(a, a); err != nil {
		t.Fatal(err)
	}
	m := mpint.NewMont(r.RandPrime(64))
	sums := [][]mpint.Term{{{Index: 0, Weight: 3}, {Index: 1, Weight: 5}}, {{Index: 2, Weight: 7}}}
	if _, err := used.MultiExpVec(randVec(r, 3, m.N()), sums, m); err != nil {
		t.Fatal(err)
	}
	used.ResetStats()
	if st := used.Stats(); st != (CheckedStats{}) {
		t.Fatalf("counters after reset: %+v", st)
	}
	reg := obs.NewRegistry()
	used.PublishMetrics(reg, "ghe")
	for _, name := range []string{"ghe.table_builds", "ghe.table_entries", "ghe.table_ops"} {
		if v := reg.Counter(name); v != 0 {
			t.Errorf("%s = %d after reset", name, v)
		}
	}
	for i := 0; i < 3; i++ {
		x, y := used.members[0].sampleIndices(40, 12), fresh.members[0].sampleIndices(40, 12)
		if fmt.Sprint(x) != fmt.Sprint(y) {
			t.Fatalf("draw %d: sampled %v after reset, a fresh engine samples %v", i, x, y)
		}
	}
}
