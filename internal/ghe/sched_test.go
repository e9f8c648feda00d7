package ghe

import (
	"errors"
	"testing"
	"time"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
	"flbooster/internal/obs"
)

// pieces cuts sh into parts pieces the way the scheduler spreads a pending
// range across its eligible members.
func pieces(sh shard, parts int) []shard {
	out := make([]shard, parts)
	for j := range out {
		out[j] = sh.piece(parts, j)
	}
	return out
}

// TestSplitShards: a range cut into parts pieces, 1 ≤ parts ≤ its length, is
// tiled exactly by contiguous, non-empty, near-equal pieces — wave 0's even
// split from 0 and a rework wave's split of a dead member's remainder alike.
func TestSplitShards(t *testing.T) {
	cases := []struct{ lo, n, parts int }{
		{0, 10, 1},
		{0, 10, 3},
		{0, 10, 10},
		{0, 3, 3}, // as many members as items: singleton shards
		{0, 1, 1},
		{0, 97, 8},
		{40, 57, 4}, // a rework range that does not start at 0
	}
	for _, c := range cases {
		shards := pieces(shard{lo: c.lo, hi: c.lo + c.n}, c.parts)
		at := c.lo
		shortest, longest := shards[0].len(), shards[0].len()
		for i, sh := range shards {
			if sh.lo != at || sh.len() <= 0 {
				t.Fatalf("%+v: shard %d = %+v breaks contiguity at %d", c, i, sh, at)
			}
			at = sh.hi
			shortest, longest = min(shortest, sh.len()), max(longest, sh.len())
		}
		if at != c.lo+c.n {
			t.Fatalf("%+v: shards end at %d, want %d", c, at, c.lo+c.n)
		}
		if longest-shortest > 1 {
			t.Fatalf("%+v: sizes span [%d,%d], want near-equal", c, shortest, longest)
		}
	}
}

func FuzzSplitShards(f *testing.F) {
	f.Add(0, 0, 0)
	f.Add(0, 1, 1)
	f.Add(0, 100, 7)
	f.Add(5, 3, 64)
	f.Add(-5, 3, 2)
	f.Add(0, 1<<20, 64)
	f.Fuzz(func(t *testing.T, lo, n, parts int) {
		// Fold the inputs into what the scheduler cuts: a range of at least one
		// item anywhere in a batch, into one piece per eligible member — never
		// more pieces than items.
		fold := func(x, m int) int { return (x%m + m) % m }
		lo, n = fold(lo, 1<<22), 1+fold(n, 1<<22)
		parts = min(1+fold(parts, MaxDevices), n)
		at := lo
		for i, sh := range pieces(shard{lo: lo, hi: lo + n}, parts) {
			if sh.lo != at || sh.len() < n/parts || sh.len() > n/parts+1 {
				t.Fatalf("piece %d of [%d,%d) in %d = %+v: not contiguous and near-equal at %d", i, lo, lo+n, parts, sh, at)
			}
			at = sh.hi
		}
		if at != lo+n {
			t.Fatalf("pieces of [%d,%d) end at %d", lo, lo+n, at)
		}
	})
}

// schedOperands are a mod_mul_vec's n operand pairs at 128 bits, and the
// product vector the host loop computes from them.
func schedOperands(t *testing.T, n int) (a, b []mpint.Nat, m *mpint.Mont, want []mpint.Nat) {
	t.Helper()
	r := mpint.NewRNG(31)
	m = mpint.NewMont(r.RandPrime(128))
	a, b = randVec(r, n, m.N()), randVec(r, n, m.N())
	want, err := hostLoop{}.ModMulVec(a, b, m)
	if err != nil {
		t.Fatal(err)
	}
	return a, b, m, want
}

// stagedOp is a mod_mul_vec with a set-up stage of the test's own: stage runs
// on every launch before the kernel, on the launching member's device.
type stagedOp struct {
	*modMulOp
	stage func(dev *gpu.Device) error
}

func (o stagedOp) setup(dev *gpu.Device) (int, error) { return 0, o.stage(dev) }
func (o stagedOp) slice(lo, hi int) vecOp {
	return stagedOp{o.modMulOp.slice(lo, hi).(*modMulOp), o.stage}
}

// TestExecutorShardsMatchSequential: one op over D ∈ {1, 2, 4, 8} members is
// the host loop's vector, one op in the ledger cut into one shard a member,
// and its parallel span is positive and no longer than the members' clocks
// summed.
func TestExecutorShardsMatchSequential(t *testing.T) {
	const n = 37
	a, b, m, want := schedOperands(t, n)
	for _, d := range []int{1, 2, 4, 8} {
		c := checkedSet(t, d, CheckedConfig{})
		got, err := c.ModMulVec(a, b, m)
		if err != nil {
			t.Fatalf("D=%d: %v", d, err)
		}
		sameVec(t, "mod_mul_vec", got, want)
		st := c.Stats()
		if st.Ops != 1 || st.Shards != int64(min(d, n)) {
			t.Fatalf("D=%d: stats = %+v, want 1 op, %d shards", d, st, min(d, n))
		}
		if seq := gpu.Sum(c.Devices()).SimTime(); st.SimParallelTime <= 0 || seq < st.SimParallelTime {
			t.Fatalf("D=%d: parallel %v vs sequential %v out of order", d, st.SimParallelTime, seq)
		}
	}
}

// TestExecutorParallelSpeedup: the same work on D = 4 costs about a quarter
// of its sequential span on the merged parallel clock — the cost model's
// occupancy is shard-size-independent, so scaling is near-linear.
func TestExecutorParallelSpeedup(t *testing.T) {
	a, b, m, _ := schedOperands(t, 256)
	c := checkedSet(t, 4, CheckedConfig{})
	if _, err := c.ModMulVec(a, b, m); err != nil {
		t.Fatal(err)
	}
	par, seq := c.Stats().SimParallelTime, gpu.Sum(c.Devices()).SimTime()
	if ratio := float64(seq) / float64(par); ratio < 3.5 {
		t.Fatalf("D=4 speedup %.2fx, want ≥3.5x (par %v, seq %v)", ratio, par, seq)
	}
}

// TestExecutorWorkStealingOnKill kills one of D = 4 members at its first
// launch: the survivors must steal its shard, split, and the op must stay
// bit-exact and lose less than 1.5/D of a healthy run's throughput. The op is
// compute-bound, as an HE lane is: a 1,024-bit exponent a base, so the whole
// op is not launch and copy latency, where any second wave would cost about
// half of it.
func TestExecutorWorkStealingOnKill(t *testing.T) {
	const n, d = 64, 4
	r := mpint.NewRNG(32)
	m := mpint.NewMont(r.RandPrime(128))
	bases, exp := randVec(r, n, m.N()), r.RandBits(1024)
	want, err := hostLoop{}.ModExpVec(bases, exp, m)
	if err != nil {
		t.Fatal(err)
	}
	healthy := checkedSet(t, d, CheckedConfig{})
	if _, err := healthy.ModExpVec(bases, exp, m); err != nil {
		t.Fatal(err)
	}
	c := checkedSet(t, d, CheckedConfig{})
	// Member 1 dies at its first launch and is declared Failed at once, so the
	// span prices the steal, not the retry backoff a dying device is charged
	// before its health machine gives up on it.
	dead := c.Devices()[1]
	dead.SetFaultInjector(gpu.NewFaultInjector(gpu.FaultConfig{Seed: 7, KillAtLaunch: 1}))
	dead.SetHealthPolicy(gpu.HealthPolicy{FailAfter: 1})
	got, err := c.ModExpVec(bases, exp, m)
	if err != nil {
		t.Fatalf("op with a dead member: %v", err)
	}
	sameVec(t, "mod_exp_vec across the migration", got, want)
	st := c.Stats()
	if st.Steals == 0 {
		t.Fatalf("expected stolen shards, stats = %+v", st)
	}
	if st.RebalanceSim <= 0 {
		t.Fatalf("rework wave must charge RebalanceSim, stats = %+v", st)
	}
	if st.HostShards != 0 {
		t.Fatalf("healthy peers should absorb the work, not the host: %+v", st)
	}
	t.Run("ThroughputBound", func(t *testing.T) {
		par := healthy.Stats().SimParallelTime
		lost := 1 - float64(par)/float64(st.SimParallelTime)
		if bound := 1.5 / d; lost >= bound {
			t.Fatalf("the kill lost %.3f of the healthy throughput, bound %.3f (healthy %v, killed %v)",
				lost, bound, par, st.SimParallelTime)
		}
	})
	// The dead device recorded its failed launch.
	if dead.Stats().FaultAborts == 0 {
		t.Fatal("member 1 should have recorded the abort")
	}
}

// TestExecutorValidation: members carry the labels ("dev0"…) their spans are
// tagged with; a fleet of no member builds and serves every op on the host
// loop, its clock that loop's wall time.
func TestExecutorValidation(t *testing.T) {
	a, b, m, want := schedOperands(t, 9)
	c := checkedSet(t, 3, CheckedConfig{})
	rec := obs.NewRecorder(1)
	for _, dev := range c.Devices() {
		dev.SetRecorder(rec, "test")
	}
	if _, err := c.ModMulVec(a, b, m); err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	for _, sp := range rec.Spans() {
		labels[sp.Device] = true
	}
	if len(labels) != 3 || !labels["dev0"] || !labels["dev1"] || !labels["dev2"] {
		t.Fatalf("span labels %v, want dev0, dev1 and dev2", labels)
	}

	host := checkedSet(t, 0, CheckedConfig{})
	got, err := host.ModMulVec(a, b, m)
	if err != nil {
		t.Fatal(err)
	}
	sameVec(t, "0 devices", got, want)
	if st := host.Stats(); len(host.Devices()) != 0 || st.HostShards != 1 || st.Shards != 0 || host.SimTime() != st.HostSim {
		t.Fatalf("0 devices: %d members, stats %+v, clock %v", len(host.Devices()), st, host.SimTime())
	}
}

// TestExecutorHostFallbackWhenAllDevicesDie: with every member killed the host
// loop serves the op, still bit-exact with it, and its wall time lands on the
// executor's clock beside the parallel span the dying members left.
func TestExecutorHostFallbackWhenAllDevicesDie(t *testing.T) {
	a, b, m, want := schedOperands(t, 16)
	c := checkedSet(t, 2, CheckedConfig{})
	for i, dev := range c.Devices() {
		dev.SetFaultInjector(gpu.NewFaultInjector(gpu.FaultConfig{Seed: uint64(i + 1), KillAtLaunch: 1}))
	}
	got, err := c.ModMulVec(a, b, m)
	if err != nil {
		t.Fatalf("op with all members dead: %v", err)
	}
	sameVec(t, "host fallback", got, want)
	st := c.Stats()
	if st.HostShards == 0 || st.HostSim <= 0 {
		t.Fatalf("expected host-served shards with charged time: %+v", st)
	}
	if st.SimParallelTime+st.HostSim != c.SimTime() {
		t.Fatalf("SimTime %v != parallel %v + host %v", c.SimTime(), st.SimParallelTime, st.HostSim)
	}
}

// TestExecutorCallerErrorAborts: an error that is no typed device fault — a
// caller's — aborts the op on the member that met it: it surfaces as itself,
// nothing is re-queued, retried or served by the host.
func TestExecutorCallerErrorAborts(t *testing.T) {
	a, b, m, _ := schedOperands(t, 8)
	c := checkedSet(t, 2, CheckedConfig{})
	wantErr := errors.New("caller bug")
	op := stagedOp{&modMulOp{newModVec(len(a), m), a, b}, func(*gpu.Device) error { return wantErr }}
	if _, err := c.run(op); !errors.Is(err, wantErr) {
		t.Fatalf("a caller error must surface, got %v", err)
	}
	if st := c.Stats(); st.Steals != 0 || st.Retries != 0 || st.HostShards != 0 {
		t.Fatalf("a caller error went through failover: %+v", st)
	}
}

// TestExecutorSpanIsMaxOverMembers: when the members of one op do uneven
// work, the executor charges the measured parallel span — the max over the
// members' deltas — and never the sum, which would double-charge the idle
// time a member spends waiting for the slowest peer.
func TestExecutorSpanIsMaxOverMembers(t *testing.T) {
	a, b, m, want := schedOperands(t, 48)
	c := checkedSet(t, 4, CheckedConfig{})
	devs := c.Devices()
	// Member i makes i plain launches of its own before its shard's, so no
	// two members finish together.
	extra := map[*gpu.Device]int{}
	for i, dev := range devs {
		extra[dev] = i
	}
	op := stagedOp{&modMulOp{newModVec(len(a), m), a, b}, func(dev *gpu.Device) error {
		for l := 0; l < extra[dev]; l++ {
			k := gpu.Kernel{Name: "uneven", Items: 12, RegsPerThread: 16, WordOps: 64, Body: gpu.LaneFunc(func(int) {})}
			if _, err := dev.Launch(k); err != nil {
				return err
			}
		}
		return nil
	}}
	got, err := c.run(op)
	if err != nil {
		t.Fatal(err)
	}
	sameVec(t, "uneven mod_mul_vec", got, want)
	var sum, longest time.Duration
	for _, dev := range devs {
		delta := dev.Stats().SimTime()
		sum += delta
		longest = max(longest, delta)
	}
	st := c.Stats()
	if st.SimParallelTime != longest {
		t.Fatalf("parallel time %v, want the max over members %v", st.SimParallelTime, longest)
	}
	if st.SimParallelTime >= sum {
		t.Fatalf("parallel span %v must be strictly below the naive sum %v", st.SimParallelTime, sum)
	}
}

// TestExecutorResetStatsKeepsHealth: ResetStats zeroes the ledger and leaves a
// failed member failed — a device does not heal by bookkeeping.
func TestExecutorResetStatsKeepsHealth(t *testing.T) {
	a, b, m, _ := schedOperands(t, 8)
	c := checkedSet(t, 2, CheckedConfig{})
	dead := c.Devices()[1]
	dead.SetFaultInjector(gpu.NewFaultInjector(gpu.FaultConfig{Seed: 1, KillAtLaunch: 1}))
	dead.SetHealthPolicy(gpu.HealthPolicy{FailAfter: 1})
	if _, err := c.ModMulVec(a, b, m); err != nil {
		t.Fatal(err)
	}
	health := dead.Health()
	if health == gpu.DeviceHealthy {
		t.Fatal("member 1 should have failed")
	}
	c.ResetStats()
	if got := c.Stats(); got != (CheckedStats{}) {
		t.Fatalf("ledger after reset = %+v", got)
	}
	if dead.Health() != health {
		t.Fatal("health must survive ResetStats")
	}
}
