package fl

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/obs"
)

// obsGrads builds a small deterministic workload for observability tests.
func obsGrads(parties, dim int) [][]float64 {
	grads := make([][]float64, parties)
	for c := range grads {
		grads[c] = make([]float64, dim)
		for i := range grads[c] {
			grads[c][i] = float64((c+1)*(i+1)%7)/28.0 - 0.1
		}
	}
	return grads
}

// observedContext builds a context for p with a bundle of its own attached
// under the profile's system label.
func observedContext(t *testing.T, p Profile) *Context {
	t.Helper()
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx.AttachObs(obs.New(p.Seed), "")
	return ctx
}

// costRows is the test's own reading of which "fl.<label>." counter holds
// which CostSnapshot field.
func costRows(s CostSnapshot) map[string]int64 {
	return map[string]int64{
		"he_ops": s.HEOps, "instances": s.Instances, "he_sim_ns": int64(s.HESim),
		"comm_msgs": s.CommMsgs, "comm_bytes": s.CommBytes, "comm_sim_ns": int64(s.CommSim),
		"retry_msgs": s.RetryMsgs, "plainvals": s.Plainvals, "ciphertexts": s.Ciphertexts,
		"encode_sim_ns": int64(s.EncodeSim), "encode_vals": s.EncodeVals,
	}
}

// TestObservedRoundReconciles: a round on a context with a bundle attached
// emits its five phase spans, pushes its protocol and transport counters, and
// after PublishMetrics the registry's cost counters read the CostSnapshot.
func TestObservedRoundReconciles(t *testing.T) {
	p := NewProfile(SystemFATE, 128, 3)
	p.Seed = 7
	ctx := observedContext(t, p)
	if ctx.obsPrefix != "FATE" {
		t.Fatalf("empty label did not fall back to the system (label %q)", ctx.obsPrefix)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	if _, err := fed.SecureAggregate(obsGrads(3, 8)); err != nil {
		t.Fatal(err)
	}
	ctx.PublishMetrics()

	spans := ctx.Obs.Recorder().Spans()
	if len(spans) == 0 {
		t.Fatal("observed round recorded no spans")
	}
	var phases int
	for _, s := range spans {
		if s.Lane == "fl.round" {
			phases++
		}
	}
	if phases != 5 {
		t.Fatalf("%d round-phase spans, want 5 (upload gather aggregate broadcast decrypt)", phases)
	}

	reg := ctx.Obs.Metrics()
	if reg.Counter("fl.FATE.rounds") != 1 {
		t.Fatalf("rounds counter = %d, want 1", reg.Counter("fl.FATE.rounds"))
	}
	if got, want := reg.Counter("fl.FATE.he_ops"), ctx.Costs.Snapshot().HEOps; got != want || got == 0 {
		t.Fatalf("published he_ops = %d, snapshot says %d", got, want)
	}
}

// TestCostsResetZeroesPublishedCounters: on a CPU and a GPU profile, every
// published "fl.<label>." cost counter equals its CostSnapshot field after
// PublishMetrics, and reads 0 after Costs.Reset and a second publish.
func TestCostsResetZeroesPublishedCounters(t *testing.T) {
	for _, sys := range []System{SystemFATE, SystemFLBooster} {
		t.Run(string(sys), func(t *testing.T) {
			p := testProfile(sys)
			p.Seed = 11
			ctx := observedContext(t, p)
			fed := NewFederation(ctx)
			defer fed.Close()
			if _, err := fed.SecureAggregate(obsGrads(p.Parties, 4)); err != nil {
				t.Fatal(err)
			}
			reg := ctx.Obs.Metrics()
			check := func(when string, want map[string]int64) {
				t.Helper()
				for name, v := range want {
					if got := reg.Counter("fl." + ctx.obsPrefix + "." + name); got != v {
						t.Errorf("%s: fl.%s.%s = %d, want %d", when, ctx.obsPrefix, name, got, v)
					}
				}
			}
			ctx.PublishMetrics()
			rows := costRows(ctx.Costs.Snapshot())
			if rows["he_ops"] == 0 || rows["comm_bytes"] == 0 {
				t.Fatalf("the round charged no costs: %v", rows)
			}
			check("after the round", rows)
			ctx.Costs.Reset()
			ctx.PublishMetrics()
			check("after Reset", costRows(CostSnapshot{}))
		})
	}
}

// TestUnobservedContextIsInert: without a bundle, every observability entry
// point is a cheap no-op.
func TestUnobservedContextIsInert(t *testing.T) {
	p := NewProfile(SystemFATE, 128, 2)
	p.Seed = 3
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Obs != nil {
		t.Fatal("bundle attached by NewContext")
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	if _, err := fed.SecureAggregate(obsGrads(2, 4)); err != nil {
		t.Fatal(err)
	}
	ctx.PublishMetrics()
}

// TestPublishedEngineMetricNames pins the "ghe.<label>.*" and "gpu.<label>.*"
// name sets a context publishes, over no device (a CPU profile, the host loop
// serving every op), one and two: the aggregate rows a single-device
// dashboard reads are there at every device count, the ops issued and the
// host ledger are the set's rows alone, and every additive ".dev<i>" row sums
// to its aggregate.
func TestPublishedEngineMetricNames(t *testing.T) {
	gpuAdditive := []string{
		"launches", "threads", "warps", "bytes_h2d", "bytes_d2h",
		"sim_transfer_ns", "sim_compute_ns", "sim_fault_ns",
		"launch_failures",
		"fault_aborts", "fault_corruptions", "fault_stalls", "fault_ooms",
	}
	gpuRow := append([]string{"avg_utilization", "health"}, gpuAdditive...)
	gpuSet := []string{
		"devset_devices", "devset_ops", "devset_shards", "devset_steals", "devset_host_shards",
		"devset_rebalance_ns", "devset_parallel_ns", "devset_host_sim_ns",
	}
	gheShare := []string{
		"retries", "verify_samples",
		"table_builds", "table_entries", "table_ops",
	}

	for _, d := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("D=%d", d), func(t *testing.T) {
			p := devsetProfile(d)
			if d == 0 {
				p.System = SystemNoGHE
			}
			// Transient aborts under full verification, so the rows that must
			// sum are not all zero: at one launch an encryption a round is a
			// dozen launches, and two in five aborting leaves none of them empty.
			p.Faults = FaultPolicy{
				Inject: gpu.FaultConfig{Seed: 5, AbortProb: 0.4},
				Check:  ghe.CheckedConfig{MaxRetries: 8, VerifyFraction: 1},
			}
			ctx := observedContext(t, p)
			fed := NewFederation(ctx)
			defer fed.Close()
			if _, err := fed.SecureAggregate(epochGrads(1, p.Parties, 64)[0]); err != nil {
				t.Fatal(err)
			}
			ctx.PublishMetrics()

			gpuPre, ghePre := "gpu."+ctx.obsPrefix, "ghe."+ctx.obsPrefix
			want := map[string]bool{}
			for _, n := range append(gpuRow, gpuSet...) {
				want[gpuPre+"."+n] = true
			}
			for _, n := range gheShare {
				want[ghePre+"."+n] = true
			}
			for i := 0; i < d; i++ {
				for _, n := range gpuRow {
					want[fmt.Sprintf("%s.dev%d.%s", gpuPre, i, n)] = true
				}
				for _, n := range gheShare {
					want[fmt.Sprintf("%s.dev%d.%s", ghePre, i, n)] = true
				}
			}
			var dump bytes.Buffer
			if err := ctx.Obs.Metrics().WriteText(&dump); err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(strings.TrimSpace(dump.String()), "\n") {
				name := strings.Fields(line)[1]
				if !strings.HasPrefix(name, "gpu.") && !strings.HasPrefix(name, "ghe.") {
					continue
				}
				if !want[name] {
					t.Errorf("unexpected metric %s", name)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("missing metric %s", name)
			}

			reg := ctx.Obs.Metrics()
			for _, n := range gpuAdditive {
				var sum int64
				for i := 0; i < d; i++ {
					sum += reg.Counter(fmt.Sprintf("%s.dev%d.%s", gpuPre, i, n))
				}
				if agg := reg.Counter(gpuPre + "." + n); agg != sum {
					t.Errorf("%s.%s = %d, per-device rows sum to %d", gpuPre, n, agg, sum)
				}
			}
			for _, n := range gheShare {
				var sum int64
				for i := 0; i < d; i++ {
					sum += reg.Counter(fmt.Sprintf("%s.dev%d.%s", ghePre, i, n))
				}
				if agg := reg.Counter(ghePre + "." + n); agg != sum {
					t.Errorf("%s.%s = %d, per-device rows sum to %d", ghePre, n, agg, sum)
				}
			}
			if reg.Counter(gpuPre+".devset_ops") == 0 {
				t.Error("the round left the set's ops row empty")
			}
			if d == 0 {
				if reg.Counter(gpuPre+".devset_host_shards") != reg.Counter(gpuPre+".devset_ops") || reg.Counter(gpuPre+".devset_host_sim_ns") == 0 {
					t.Error("the host loop did not serve every op of a set of no member")
				}
			} else if reg.Counter(ghePre+".retries") == 0 || reg.Counter(ghePre+".verify_samples") == 0 ||
				reg.Counter(gpuPre+".launches") == 0 || reg.Counter(gpuPre+".launch_failures") == 0 {
				t.Error("the round left the engine rows empty")
			}
		})
	}
}

// TestUtilizationIsThePublishedGauge: Context.Utilization, Fig. 6's reading,
// is the fleet's launch-weighted mean the gpu.<label>.avg_utilization gauge
// publishes — also on two members that launched different counts, one killed
// a few launches into the first round. At 1,024 bits the kernels' register
// demand makes occupancy depend on a launch's item count, so the members'
// own means differ and the mean of them is not the fleet's.
func TestUtilizationIsThePublishedGauge(t *testing.T) {
	p := testProfile(SystemFLBooster)
	p.KeyBits = 1024
	p.Devices = 2
	ctx := observedContext(t, p)
	devs := ctx.Checked.Devices()
	devs[1].SetFaultInjector(gpu.NewFaultInjector(gpu.FaultConfig{Seed: 7, KillAtLaunch: 3}))
	fed := NewFederation(ctx)
	defer fed.Close()
	for r := 0; r < 2; r++ {
		if _, err := fed.SecureAggregate(obsGrads(p.Parties, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := devs[0].Stats().UtilizationCount, devs[1].Stats().UtilizationCount; a == b || b == 0 {
		t.Fatalf("members launched %d and %d times, want two different nonzero counts", a, b)
	}
	ctx.PublishMetrics()
	var text bytes.Buffer
	if err := ctx.Obs.Metrics().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	name := "gauge gpu." + ctx.obsPrefix + ".avg_utilization "
	var gauge float64
	for _, line := range strings.Split(text.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name); ok {
			if _, err := fmt.Sscan(v, &gauge); err != nil {
				t.Fatal(err)
			}
		}
	}
	if means := (devs[0].Stats().AvgUtilization() + devs[1].Stats().AvgUtilization()) / 2; means == gauge {
		t.Fatalf("the members' mean utilizations average to the gauge %v: nothing tells the two definitions apart", gauge)
	}
	if got := ctx.Utilization(); got != gauge || got <= 0 {
		t.Fatalf("Utilization() = %v, the published gauge %v", got, gauge)
	}
}
