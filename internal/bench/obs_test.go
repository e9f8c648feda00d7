package bench

import (
	"bytes"
	"io"
	"testing"

	"flbooster/internal/obs"
)

// TestPipelineTraceDeterministicAndReconciled: a paper experiment (Fig. 6,
// which runs every model on both GPU profiles) with observation on must emit
// a byte-identical trace and publish byte-identical metrics on a same-seed
// rerun — spans and the published counters of a GPU profile carry only
// modelled quantities, so two runs of the same workload may not differ.
func TestPipelineTraceDeterministicAndReconciled(t *testing.T) {
	run := func() ([]byte, []byte) {
		cfg := microConfig()
		cfg.Observe = true
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Fig6(io.Discard); err != nil {
			t.Fatal(err)
		}
		r.PublishMetrics()
		if r.Obs().Recorder().Len() == 0 {
			t.Fatal("Fig. 6 recorded no spans")
		}
		if r.Obs().Metrics().Counter("fl.FLBooster-128.he_ops") == 0 {
			t.Fatal("Fig. 6 published no cost counters")
		}
		var trace, metrics bytes.Buffer
		if err := r.Obs().Recorder().WriteTrace(&trace); err != nil {
			t.Fatal(err)
		}
		if err := r.Obs().Metrics().WriteText(&metrics); err != nil {
			t.Fatal(err)
		}
		return trace.Bytes(), metrics.Bytes()
	}
	traceA, metricsA := run()
	traceB, metricsB := run()
	if !bytes.Equal(traceA, traceB) {
		t.Fatalf("same-seed reruns produced different traces: %d vs %d bytes", len(traceA), len(traceB))
	}
	if !bytes.Equal(metricsA, metricsB) {
		t.Fatalf("same-seed reruns published different metrics:\n%s\nvs\n%s", metricsA, metricsB)
	}
}

// TestCachedContextPublishesOneWindow: every r.context call restarts the
// counting window of each layer a cached context publishes, so running an
// experiment twice on one runner publishes what running it once does — the
// executor's ghe rows included, beside the fl and gpu rows of the same window.
func TestCachedContextPublishesOneWindow(t *testing.T) {
	publish := func(runs int) *obs.Registry {
		cfg := microConfig()
		cfg.Observe = true
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < runs; i++ {
			if err := r.Fig7(io.Discard); err != nil {
				t.Fatal(err)
			}
			r.PublishMetrics()
		}
		return r.Obs().Metrics()
	}
	once, twice := publish(1), publish(2)
	for _, name := range []string{"ghe.FLBooster-128.ops", "gpu.FLBooster-128.launches", "fl.FLBooster-128.he_ops"} {
		if got, want := twice.Counter(name), once.Counter(name); got != want || want == 0 {
			t.Errorf("%s after two Fig. 7 runs = %d, after one = %d", name, got, want)
		}
	}
}

// TestRunnerWithoutObserveHasNoBundle: observation stays strictly opt-in.
func TestRunnerWithoutObserveHasNoBundle(t *testing.T) {
	r, err := NewRunner(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Obs() != nil {
		t.Fatal("bundle attached without Observe")
	}
	r.PublishMetrics()
}
