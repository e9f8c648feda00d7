package fl

import (
	"fmt"

	"flbooster/internal/obs"
)

// PhaseCost is one protocol phase's slice of a round's cost anatomy: the
// sim-time each cost component accrued while the phase ran, plus the
// operation and byte counts behind them. Only modelled (sim) quantities
// appear — wall times vary run to run, and the anatomy's contract is that
// the same seed produces identical rows.
type PhaseCost struct {
	Phase       string `json:"phase"`
	EncodeSimNs int64  `json:"encode_sim_ns"`
	HESimNs     int64  `json:"he_sim_ns"`
	CommSimNs   int64  `json:"comm_sim_ns"`
	HEOps       int64  `json:"he_ops"`
	CommBytes   int64  `json:"comm_bytes"`
}

// TotalSimNs is the phase's sim-time: every component summed.
func (p PhaseCost) TotalSimNs() int64 {
	return p.EncodeSimNs + p.HESimNs + p.CommSimNs
}

// The same value as TotalSimNs: a phase has no overlap to credit. The name
// exists only because benchmark/layers.go reads the per-phase rows under it.
func (p PhaseCost) OverlappedSimNs() int64 { return p.TotalSimNs() }

// phaseDelta is the cost accrued between two snapshots, as a PhaseCost.
func phaseDelta(before, after CostSnapshot) PhaseCost {
	return PhaseCost{
		EncodeSimNs: int64(after.EncodeSim - before.EncodeSim),
		HESimNs:     int64(after.HESim - before.HESim),
		CommSimNs:   int64(after.CommSim - before.CommSim),
		HEOps:       after.HEOps - before.HEOps,
		CommBytes:   after.CommBytes - before.CommBytes,
	}
}

// RoundAnatomy is the per-phase cost table of one federation round: which
// phase spent what, in deterministic sim-time. Phases appear in the order
// they ran and none nests in another, so the rows sum to the round's
// whole-run cost delta.
type RoundAnatomy struct {
	Round  uint64      `json:"round"`
	Phases []PhaseCost `json:"phases"`
}

// Dominant names the phase with the largest sim-time — the term
// an optimization pass should attack first. Ties break toward the earlier
// row, so the answer is deterministic.
func (a *RoundAnatomy) Dominant() string {
	best, at := int64(-1), ""
	for _, p := range a.Phases {
		if t := p.TotalSimNs(); t > best {
			best, at = t, p.Phase
		}
	}
	return at
}

// phaseRecorder collects one round's anatomy: Span brackets every phase with
// a cost snapshot and appends the delta as the phase's row.
type phaseRecorder struct {
	ctx  *Context
	anat *RoundAnatomy
}

// Span runs one protocol phase, appends its cost delta to the round's
// anatomy, and — with a recorder attached — also records it as a span on the
// context's sim cost clock, so every round leaves a phase-by-phase trace.
// Anatomy collection is unconditional: it reads only the cost accumulator,
// which is always live.
func (r *phaseRecorder) Span(phase string, fn func() error) error {
	ctx := r.ctx
	start, before := ctx.SimCost(), ctx.Costs.Snapshot()
	err := fn()
	row := phaseDelta(before, ctx.Costs.Snapshot())
	row.Phase = phase
	r.anat.Phases = append(r.anat.Phases, row)
	if rec := ctx.Obs.Recorder(); rec != nil {
		rec.Record(obs.Span{
			Phase: fmt.Sprintf("round%d.%s", r.anat.Round, phase),
			Party: ctx.obsPrefix + ".fl",
			Lane:  "fl.round",
			Start: start,
			Dur:   ctx.SimCost() - start,
		})
	}
	return err
}
