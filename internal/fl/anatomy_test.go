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
		t.EncodeSimNs += p.EncodeSimNs
		t.HESimNs += p.HESimNs
		t.CommSimNs += p.CommSimNs
		t.HEOps += p.HEOps
		t.CommBytes += p.CommBytes
	}
	return t
}

// TestRoundAnatomyDeterministic pins the anatomy's contract: two same-seed
// rounds report identical phase rows, one row a phase in the order the phases
// ran, and the rows sum to the round's whole-run cost delta — so no row
// counts another's cost.
func TestRoundAnatomyDeterministic(t *testing.T) {
	const dim = 24
	grads := testGrads(4, dim)
	for name, p := range map[string]Profile{"plain": testProfile(SystemHAFLO)} {
		t.Run(name, func(t *testing.T) {
			run := func() ([]PhaseCost, PhaseCost, PhaseCost) {
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
			var phases []string
			for _, row := range rows1 {
				phases = append(phases, row.Phase)
			}
			if want := []string{"upload", "gather", "aggregate", "broadcast", "decrypt"}; !reflect.DeepEqual(phases, want) {
				t.Fatalf("anatomy rows %v, want %v", phases, want)
			}
			whole.Phase = total.Phase
			if total != whole {
				t.Fatalf("phase rows sum to %+v, whole-round delta is %+v", total, whole)
			}
			if total.HESimNs == 0 || total.CommSimNs == 0 || total.EncodeSimNs == 0 {
				t.Fatalf("anatomy missing a cost component: %+v", total)
			}
		})
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
