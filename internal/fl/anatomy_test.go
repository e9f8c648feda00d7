package fl

import (
	"reflect"
	"testing"
	"time"

	"flbooster/internal/obs"
)

// anatomyTotal sums every phase row of a into one row named "total".
func anatomyTotal(a *RoundAnatomy) PhaseCost {
	t := PhaseCost{Phase: "total"}
	for _, p := range a.Phases {
		t = t.add(p)
	}
	return t
}

// TestRoundAnatomyDeterministic pins the anatomy's contract: two same-seed
// rounds report identical phase rows, and the rows sum to the round's
// whole-run cost delta.
func TestRoundAnatomyDeterministic(t *testing.T) {
	const dim = 24
	grads := testGrads(4, dim)
	run := func() ([]PhaseCost, PhaseCost, PhaseCost) {
		p := testProfile(SystemHAFLO)
		ctx, err := NewContext(p)
		if err != nil {
			t.Fatal(err)
		}
		ctx.AttachObs(obs.New(p.Seed), "")
		fed := NewFederation(ctx)
		defer fed.Close()
		before := ctx.Costs.Snapshot()
		_, rep, err := fed.SecureAggregateReport(grads)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Anatomy == nil || len(rep.Anatomy.Phases) == 0 {
			t.Fatalf("round report carries no anatomy: %+v", rep)
		}
		whole := phaseDelta(before, ctx.Costs.Snapshot())
		return rep.Anatomy.Phases, anatomyTotal(rep.Anatomy), whole
	}

	rows1, total, whole := run()
	rows2, _, _ := run()
	if !reflect.DeepEqual(rows1, rows2) {
		t.Fatalf("same-seed anatomy rows differ:\n%+v\nvs\n%+v", rows1, rows2)
	}
	whole.Phase = total.Phase
	if total != whole {
		t.Fatalf("phase rows sum to %+v, whole-round delta is %+v", total, whole)
	}
	if total.HESimNs == 0 || total.CommSimNs == 0 || total.EncodeSimNs == 0 {
		t.Fatalf("anatomy missing a cost component: %+v", total)
	}
}

// TestRoundAnatomyNestedCombine: a defended round's decrypt phase nests a
// combine phase; the child row must precede its parent and the parent row
// must not double-count the child's cost.
func TestRoundAnatomyNestedCombine(t *testing.T) {
	p := testProfile(SystemHAFLO)
	p.Defense = DefensePolicy{Groups: 2, Combiner: CombineFedAvg}
	_, ctx, rep := runRound(t, p, testGrads(4, 8), 1)
	idx := map[string]int{}
	for i, ph := range rep.Anatomy.Phases {
		idx[ph.Phase] = i
	}
	ci, ok1 := idx["combine"]
	di, ok2 := idx["decrypt"]
	if !ok1 || !ok2 || ci > di {
		t.Fatalf("combine/decrypt rows missing or misordered: %+v", rep.Anatomy.Phases)
	}
	// The rows sum to the round total; with double-counting the sum would
	// exceed the whole-round HE time.
	var heSum int64
	for _, ph := range rep.Anatomy.Phases {
		heSum += ph.HESimNs
	}
	if whole := int64(ctx.Costs.Snapshot().HESim); heSum > whole {
		t.Fatalf("per-phase HE sums to %d, more than the round's %d", heSum, whole)
	}
}

// TestSharesDenominator pins Shares: the fractions divide by TotalSim and
// fold encode into the "other" share.
func TestSharesDenominator(t *testing.T) {
	seq := &Costs{}
	seq.AddHE(0, 100, 1, 1)
	seq.AddComm(300, 10)
	seq.AddOther(60)
	seq.AddEncode(0, 40, 4)
	s := seq.Snapshot()
	if got, want := s.TotalSim(), 500*time.Nanosecond; got != want {
		t.Fatalf("TotalSim = %v, want %v", got, want)
	}
	other, he, comm := s.Shares()
	if other != 0.2 || he != 0.2 || comm != 0.6 {
		t.Fatalf("sequential shares = %v/%v/%v, want 0.2/0.2/0.6", other, he, comm)
	}
}
