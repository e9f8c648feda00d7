package gpu

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// pieces cuts sh into parts pieces the way the scheduler spreads a pending
// range across its eligible devices.
func pieces(sh Shard, parts int) []Shard {
	out := make([]Shard, parts)
	for j := range out {
		out[j] = sh.piece(parts, j)
	}
	return out
}

// TestSplitShards: a range cut into parts pieces, 1 ≤ parts ≤ its length, is
// tiled exactly by contiguous, non-empty, near-equal pieces — wave 0's even
// split from 0 and a rework wave's split of a dead device's remainder alike.
func TestSplitShards(t *testing.T) {
	cases := []struct{ lo, n, parts int }{
		{0, 10, 1},
		{0, 10, 3},
		{0, 10, 10},
		{0, 3, 3}, // as many devices as items: singleton shards
		{0, 1, 1},
		{0, 97, 8},
		{40, 57, 4}, // a rework range that does not start at 0
	}
	for _, c := range cases {
		shards := pieces(Shard{Lo: c.lo, Hi: c.lo + c.n}, c.parts)
		at := c.lo
		shortest, longest := shards[0].Len(), shards[0].Len()
		for i, sh := range shards {
			if sh.Lo != at || sh.Len() <= 0 {
				t.Fatalf("%+v: shard %d = %+v breaks contiguity at %d", c, i, sh, at)
			}
			at = sh.Hi
			shortest, longest = min(shortest, sh.Len()), max(longest, sh.Len())
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
		// item anywhere in a batch, into one piece per eligible device — never
		// more pieces than items.
		fold := func(x, m int) int { return (x%m + m) % m }
		lo, n = fold(lo, 1<<22), 1+fold(n, 1<<22)
		parts = min(1+fold(parts, MaxDevices), n)
		at := lo
		for i, sh := range pieces(Shard{Lo: lo, Hi: lo + n}, parts) {
			if sh.Lo != at || sh.Len() < n/parts || sh.Len() > n/parts+1 {
				t.Fatalf("piece %d of [%d,%d) in %d = %+v: not contiguous and near-equal at %d", i, lo, lo+n, parts, sh, at)
			}
			at = sh.Hi
		}
		if at != lo+n {
			t.Fatalf("pieces of [%d,%d) end at %d", lo, lo+n, at)
		}
	})
}

// testSet builds a small D-device set.
func testSet(t *testing.T, d int) *DeviceSet {
	t.Helper()
	s, err := NewDeviceSet(SmallTestDevice(), true, d)
	if err != nil {
		t.Fatalf("NewDeviceSet(%d): %v", d, err)
	}
	return s
}

// doubleOp builds a sharded op computing out[i] = in[i]*2 through the real
// device kernel path (H2D, launch, D2H) so clocks and fault injection engage.
// At four word-ops an item its modelled time is launch and copy latency.
func doubleOp(s *DeviceSet, in, out []int64) ShardOp { return costedDoubleOp(s, in, out, 4) }

// costedDoubleOp is doubleOp charging wordOps word-ops an item.
func costedDoubleOp(s *DeviceSet, in, out []int64, wordOps int64) ShardOp {
	return ShardOp{
		Name:  "double",
		Items: len(in),
		Run: func(devID int, sh Shard) error {
			dev := s.Device(devID)
			dev.CopyToDevice(int64(sh.Len()) * 8)
			k := Kernel{Name: "double", Items: sh.Len(), RegsPerThread: 16, WordOps: wordOps}
			if _, err := dev.Launch(k.over(func(i int) {
				out[sh.Lo+i] = in[sh.Lo+i] * 2
			})); err != nil {
				return err
			}
			dev.CopyFromDevice(int64(sh.Len()) * 8)
			return nil
		},
		Host: func(sh Shard) error {
			for i := sh.Lo; i < sh.Hi; i++ {
				out[i] = in[i] * 2
			}
			return nil
		},
	}
}

func seqInput(n int) []int64 {
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(i*i + 3)
	}
	return in
}

// TestDeviceSetValidation: a negative count and one above MaxDevices are
// rejected; a set of no member builds and serves every op on the host loop,
// its clock that loop's wall time.
func TestDeviceSetValidation(t *testing.T) {
	if _, err := NewDeviceSet(SmallTestDevice(), true, -1); err == nil {
		t.Fatal("-1 devices must be rejected")
	}
	if _, err := NewDeviceSet(SmallTestDevice(), true, MaxDevices+1); err == nil {
		t.Fatal("MaxDevices+1 must be rejected")
	}
	host := testSet(t, 0)
	in := seqInput(9)
	out := make([]int64, len(in))
	if err := host.Run(doubleOp(host, in, out)); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i]*2 {
			t.Fatalf("0 devices: item %d = %d, want %d", i, out[i], in[i]*2)
		}
	}
	if st := host.Stats(); host.Size() != 0 || st.HostShards != 1 || st.Shards != 0 || host.SimTime() != st.HostSim {
		t.Fatalf("0 devices: size %d, stats %+v, clock %v", host.Size(), st, host.SimTime())
	}
	s := testSet(t, 3)
	for i := 0; i < 3; i++ {
		want := fmt.Sprintf("dev%d", i)
		if got := s.Device(i).devID; got != want {
			t.Fatalf("device %d label = %q, want %q", i, got, want)
		}
	}
}

func TestDeviceSetRunMatchesSequential(t *testing.T) {
	const n = 37
	in := seqInput(n)
	want := make([]int64, n)
	for i := range want {
		want[i] = in[i] * 2
	}
	for _, d := range []int{1, 2, 4, 8} {
		s := testSet(t, d)
		out := make([]int64, n)
		if err := s.Run(doubleOp(s, in, out)); err != nil {
			t.Fatalf("D=%d: %v", d, err)
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("D=%d: out[%d] = %d, want %d", d, i, out[i], want[i])
			}
		}
		st := s.Stats()
		if st.Ops != 1 || st.Shards != int64(min(d, n)) {
			t.Fatalf("D=%d: stats = %+v, want 1 op, %d shards", d, st, min(d, n))
		}
		if seq := s.StatsSum().SimTime(); st.SimParallelTime <= 0 || seq < st.SimParallelTime {
			t.Fatalf("D=%d: parallel %v vs sequential %v out of order", d, st.SimParallelTime, seq)
		}
	}
}

// TestDeviceSetParallelSpeedup: the same work on D=4 must cost roughly 1/4
// of its sequential span on the merged parallel clock — the cost model's
// occupancy is shard-size-independent, so scaling is near-linear.
func TestDeviceSetParallelSpeedup(t *testing.T) {
	const n = 256
	in := seqInput(n)
	out := make([]int64, n)
	s := testSet(t, 4)
	if err := s.Run(doubleOp(s, in, out)); err != nil {
		t.Fatal(err)
	}
	par, seq := s.Stats().SimParallelTime, s.StatsSum().SimTime()
	if ratio := float64(seq) / float64(par); ratio < 3.5 {
		t.Fatalf("D=4 speedup %.2fx, want ≥3.5x (par %v, seq %v)", ratio, par, seq)
	}
}

// TestDeviceSetWorkStealingOnKill kills one of D = 4 devices at its first
// launch: the survivors must steal its shard, split, and the op must stay
// bit-exact and lose less than 1.5/D of a healthy run's throughput. The op is
// compute-bound, as an HE lane is (2¹⁶ word-ops an item); at doubleOp's four
// the whole op is latency, and any second wave costs about half of it.
func TestDeviceSetWorkStealingOnKill(t *testing.T) {
	const n, d, wordOps = 64, 4, 1 << 16
	in := seqInput(n)
	want := make([]int64, n)
	for i := range want {
		want[i] = in[i] * 2
	}
	healthy := testSet(t, d)
	if err := healthy.Run(costedDoubleOp(healthy, in, make([]int64, n), wordOps)); err != nil {
		t.Fatal(err)
	}
	s := testSet(t, d)
	// Device 1 dies at its first launch: every attempt aborts.
	s.Device(1).SetFaultInjector(NewFaultInjector(FaultConfig{Seed: 7, KillAtLaunch: 1}))
	out := make([]int64, n)
	if err := s.Run(costedDoubleOp(s, in, out, wordOps)); err != nil {
		t.Fatalf("Run with dead device: %v", err)
	}
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("out[%d] = %d, want %d (bit-exactness must survive migration)", i, out[i], want[i])
		}
	}
	st := s.Stats()
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
		lost := 1 - float64(healthy.Stats().SimParallelTime)/float64(st.SimParallelTime)
		if bound := 1.5 / d; lost >= bound {
			t.Fatalf("the kill lost %.3f of the healthy throughput, bound %.3f (healthy %v, killed %v)",
				lost, bound, healthy.Stats().SimParallelTime, st.SimParallelTime)
		}
	})
	// The dead device recorded its failed launch.
	if s.Device(1).Stats().FaultAborts == 0 {
		t.Fatal("device 1 should have recorded the abort")
	}
}

func TestDeviceSetHostFallbackWhenAllDevicesDie(t *testing.T) {
	const n = 16
	in := seqInput(n)
	s := testSet(t, 2)
	for i := 0; i < 2; i++ {
		s.Device(i).SetFaultInjector(NewFaultInjector(FaultConfig{Seed: uint64(i + 1), KillAtLaunch: 1}))
	}
	out := make([]int64, n)
	if err := s.Run(doubleOp(s, in, out)); err != nil {
		t.Fatalf("Run with all devices dead: %v", err)
	}
	for i := range out {
		if out[i] != in[i]*2 {
			t.Fatalf("host fallback out[%d] = %d, want %d", i, out[i], in[i]*2)
		}
	}
	st := s.Stats()
	if st.HostShards == 0 || st.HostSim <= 0 {
		t.Fatalf("expected host-fallback shards with charged time: %+v", st)
	}
	if st.SimParallelTime+st.HostSim != s.SimTime() {
		t.Fatalf("SimTime %v != parallel %v + host %v", s.SimTime(), st.SimParallelTime, st.HostSim)
	}
}

func TestDeviceSetFatalErrorAborts(t *testing.T) {
	s := testSet(t, 2)
	wantErr := errors.New("caller bug")
	err := s.Run(ShardOp{
		Name:  "broken",
		Items: 8,
		Run: func(devID int, sh Shard) error {
			return wantErr
		},
	})
	if err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("fatal error must surface, got %v", err)
	}
}

func TestDeviceSetNoHostFnSurfacesLastError(t *testing.T) {
	s := testSet(t, 1)
	s.Device(0).SetFaultInjector(NewFaultInjector(FaultConfig{Seed: 3, KillAtLaunch: 1}))
	in := seqInput(4)
	op := doubleOp(s, in, make([]int64, 4))
	op.Host = nil
	if err := s.Run(op); err == nil {
		t.Fatal("no host fallback and no eligible device must error")
	}
}

// TestSetPipelineNoIdleDoubleCharge: when the members of one sharded op do
// uneven work, the set must charge the measured parallel span — the max over
// the devices' deltas — and never the sum, which would double-charge the idle
// time a device spends waiting for the slowest peer.
func TestSetPipelineNoIdleDoubleCharge(t *testing.T) {
	const n = 48
	s := testSet(t, 4)
	base := make([]time.Duration, 4)
	for i := range base {
		base[i] = s.Device(i).Stats().SimTime()
	}
	op := ShardOp{
		Name:  "uneven",
		Items: n,
		Run: func(devID int, sh Shard) error {
			dev := s.Device(devID)
			// Device i makes i+1 plain launches of its shard, so no two members
			// finish together.
			for l := 0; l <= devID; l++ {
				dev.CopyToDevice(int64(sh.Len()) * 8)
				k := Kernel{Name: "uneven", Items: sh.Len(), RegsPerThread: 16, WordOps: 64}
				if _, err := dev.Launch(k.over(func(int) {})); err != nil {
					return err
				}
				dev.CopyFromDevice(int64(sh.Len()) * 8)
			}
			return nil
		},
	}
	if err := s.Run(op); err != nil {
		t.Fatal(err)
	}
	var sum, max time.Duration
	for i := range base {
		delta := s.Device(i).Stats().SimTime() - base[i]
		sum += delta
		if delta > max {
			max = delta
		}
	}
	st := s.Stats()
	if st.SimParallelTime != max {
		t.Fatalf("set parallel time %v, want max-over-devices %v", st.SimParallelTime, max)
	}
	if st.SimParallelTime >= sum {
		t.Fatalf("parallel span %v must be strictly below the naive sum %v", st.SimParallelTime, sum)
	}
}

func TestDeviceSetResetStatsPreservesHealth(t *testing.T) {
	s := testSet(t, 2)
	s.Device(1).SetFaultInjector(NewFaultInjector(FaultConfig{Seed: 1, KillAtLaunch: 1}))
	s.Device(1).SetHealthPolicy(HealthPolicy{FailAfter: 1})
	in := seqInput(8)
	if err := s.Run(doubleOp(s, in, make([]int64, 8))); err != nil {
		t.Fatal(err)
	}
	health := s.Device(1).Health()
	if health == DeviceHealthy {
		t.Fatal("device 1 should have failed")
	}
	s.ResetStats()
	if got := s.Stats(); got != (SetStats{}) {
		t.Fatalf("set stats after reset = %+v", got)
	}
	if s.Device(1).Health() != health {
		t.Fatal("health must survive ResetStats")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
