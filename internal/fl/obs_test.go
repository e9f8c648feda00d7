package fl

import (
	"strings"
	"testing"
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
	if ctx.Obs == nil || ctx.ObsLabel() != "FATE" {
		t.Fatalf("Observe profile did not attach a bundle (label %q)", ctx.ObsLabel())
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
