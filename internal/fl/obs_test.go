package fl

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
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

// TestObservedRoundReconciles: a profile with Observe runs a round, emits
// phase spans, mirrors its cost counters into the registry, and reconciles
// exactly against the CostSnapshot. A tampered counter must be caught.
func TestObservedRoundReconciles(t *testing.T) {
	p := NewProfile(SystemFATE, 128, 3)
	p.Seed = 7
	p.Observe = true
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Obs == nil || ctx.obsPrefix != "FATE" {
		t.Fatalf("Observe profile did not attach a bundle (label %q)", ctx.obsPrefix)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	if _, err := fed.SecureAggregate(obsGrads(3, 8)); err != nil {
		t.Fatal(err)
	}

	ctx.PublishMetrics()
	if err := ctx.ReconcileObs(); err != nil {
		t.Fatalf("metrics drifted from the cost snapshot: %v", err)
	}

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
	if reg.Counter("net.FATE.msgs") == 0 {
		t.Fatal("transport meter was not published")
	}

	reg.Add("fl.FATE.he_ops", 1)
	if err := ctx.ReconcileObs(); err == nil {
		t.Fatal("tampered counter must fail reconciliation")
	} else if !strings.Contains(err.Error(), "he_ops") {
		t.Fatalf("drift error does not name the counter: %v", err)
	}
}

// TestCostsResetZeroesMirroredCounters: resetting the accumulator must also
// zero the mirrored registry counters or the next run could never reconcile.
func TestCostsResetZeroesMirroredCounters(t *testing.T) {
	p := NewProfile(SystemFATE, 128, 2)
	p.Seed = 11
	p.Observe = true
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	if _, err := fed.SecureAggregate(obsGrads(2, 4)); err != nil {
		t.Fatal(err)
	}
	reg := ctx.Obs.Metrics()
	if reg.Counter("fl.FATE.he_ops") == 0 {
		t.Fatal("round mirrored no HE ops")
	}
	ctx.Costs.Reset()
	if got := reg.Counter("fl.FATE.he_ops"); got != 0 {
		t.Fatalf("he_ops survived Costs.Reset: %d", got)
	}
	if err := ctx.ReconcileObs(); err != nil {
		t.Fatalf("post-reset reconciliation failed: %v", err)
	}
}

// TestUnobservedContextIsInert: without Observe, every observability entry
// point is a cheap no-op and reconciliation trivially passes.
func TestUnobservedContextIsInert(t *testing.T) {
	p := NewProfile(SystemFATE, 128, 2)
	p.Seed = 3
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Obs != nil {
		t.Fatal("bundle attached without Observe")
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	if _, err := fed.SecureAggregate(obsGrads(2, 4)); err != nil {
		t.Fatal(err)
	}
	ctx.PublishMetrics()
	if err := ctx.ReconcileObs(); err != nil {
		t.Fatalf("unobserved reconcile: %v", err)
	}
}

// TestPublishedEngineMetricNames pins the "ghe.<label>.*" and "gpu.<label>.*"
// name sets a GPU context publishes, at one device and at two: the aggregate
// rows a single-device dashboard reads are there at every device count, the
// host ledger exists only in aggregate, and every additive ".dev<i>" row sums
// to its aggregate — for the device counters that is what ReconcileObs
// checks, on every GPU profile.
func TestPublishedEngineMetricNames(t *testing.T) {
	gpuRow := []string{
		"launches", "threads", "warps", "bytes_h2d", "bytes_d2h",
		"sim_transfer_ns", "sim_compute_ns", "sim_fault_ns",
		"stream_chunks", "stream_ops", "sim_stream_ns", "sim_stream_seq_ns",
		"launch_failures", "watchdog_trips",
		"fault_aborts", "fault_corruptions", "fault_stalls", "fault_ooms",
		"avg_utilization", "health",
	}
	gpuSet := []string{
		"devset_devices", "devset_ops", "devset_shards", "devset_steals", "devset_host_shards",
		"devset_rebalance_ns", "devset_parallel_ns", "devset_sequential_ns", "devset_host_sim_ns",
	}
	gheShare := []string{
		"launch_faults", "retries", "verify_samples", "verify_failures", "backoff_sim_ns",
		"table_builds", "table_entries", "table_ops",
	}
	gheHost := []string{"ops", "fallback_ops", "fallback_wall_ns"}

	for _, d := range []int{1, 2} {
		t.Run(fmt.Sprintf("D=%d", d), func(t *testing.T) {
			p := devsetProfile(d)
			p.Observe = true
			// Transient aborts under full verification, so the rows that must
			// sum are not all zero: at one launch an encryption a round is a
			// dozen launches, and two in five aborting leaves none of them empty.
			p.Faults = FaultPolicy{
				Inject: gpu.FaultConfig{Seed: 5, AbortProb: 0.4},
				Check:  ghe.CheckedConfig{MaxRetries: 8, VerifyFraction: 1},
			}
			ctx, err := NewContext(p)
			if err != nil {
				t.Fatal(err)
			}
			fed := NewFederation(ctx)
			defer fed.Close()
			if _, err := fed.SecureAggregate(epochGrads(1, p.Parties, 64)[0]); err != nil {
				t.Fatal(err)
			}
			if err := ctx.ReconcileObs(); err != nil {
				t.Fatal(err)
			}

			want := map[string]bool{}
			for _, n := range append(gpuRow, gpuSet...) {
				want["gpu.FLBooster."+n] = true
			}
			for _, n := range append(append(gheShare, gheHost...), "fell_back") {
				want["ghe.FLBooster."+n] = true
			}
			for i := 0; i < d; i++ {
				for _, n := range gpuRow {
					want[fmt.Sprintf("gpu.FLBooster.dev%d.%s", i, n)] = true
				}
				for _, n := range append(gheShare, "fell_back") {
					want[fmt.Sprintf("ghe.FLBooster.dev%d.%s", i, n)] = true
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
			for _, n := range gheShare {
				var sum int64
				for i := 0; i < d; i++ {
					sum += reg.Counter(fmt.Sprintf("ghe.FLBooster.dev%d.%s", i, n))
				}
				if agg := reg.Counter("ghe.FLBooster." + n); agg != sum {
					t.Errorf("ghe.FLBooster.%s = %d, per-device rows sum to %d", n, agg, sum)
				}
			}
			if reg.Counter("ghe.FLBooster.ops") == 0 || reg.Counter("ghe.FLBooster.launch_faults") == 0 ||
				reg.Counter("ghe.FLBooster.verify_samples") == 0 {
				t.Error("the round left the engine rows empty")
			}
		})
	}
}
