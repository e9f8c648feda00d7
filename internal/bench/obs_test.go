package bench

import (
	"bytes"
	"io"
	"testing"
)

// TestPipelineTraceDeterministicAndReconciled: a paper experiment (Fig. 6,
// which runs every model on both GPU profiles) with observation on must (a)
// leave the metrics mirror in exact agreement with every context's
// CostSnapshot and (b) emit a byte-identical trace on a same-seed rerun —
// spans carry only sim-time quantities, so two runs of the same workload may
// not differ.
func TestPipelineTraceDeterministicAndReconciled(t *testing.T) {
	run := func() []byte {
		cfg := microConfig()
		cfg.Observe = true
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Fig6(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := r.ReconcileObs(); err != nil {
			t.Fatalf("metrics/cost reconciliation: %v", err)
		}
		if r.Obs().Recorder().Len() == 0 {
			t.Fatal("Fig. 6 recorded no spans")
		}
		var buf bytes.Buffer
		if err := r.Obs().Recorder().WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed reruns produced different traces: %d vs %d bytes", len(a), len(b))
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
	if err := r.ReconcileObs(); err != nil {
		t.Fatalf("unobserved reconcile: %v", err)
	}
}
