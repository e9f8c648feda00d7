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

// add accumulates q's components into p (phase name untouched).
func (p PhaseCost) add(q PhaseCost) PhaseCost {
	p.EncodeSimNs += q.EncodeSimNs
	p.HESimNs += q.HESimNs
	p.CommSimNs += q.CommSimNs
	p.HEOps += q.HEOps
	p.CommBytes += q.CommBytes
	return p
}

// sub removes q's components from p — how a closing frame deducts its
// nested phases so each row reports only its own cost.
func (p PhaseCost) sub(q PhaseCost) PhaseCost {
	p.EncodeSimNs -= q.EncodeSimNs
	p.HESimNs -= q.HESimNs
	p.CommSimNs -= q.CommSimNs
	p.HEOps -= q.HEOps
	p.CommBytes -= q.CommBytes
	return p
}

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
// phase spent what, in deterministic sim-time. Phases appear in
// frame-closing order, so a nested phase (combine inside decrypt) precedes
// its parent and every row reports only its own cost — the rows sum to the
// round's whole-run cost delta.
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
// a cost snapshot frame; the stack handles nesting (combine inside decrypt)
// by deducting a closed child's delta from its parent's row.
type phaseRecorder struct {
	ctx    *Context
	anat   *RoundAnatomy
	frames []anatFrame
}

// anatFrame is one open phase on the anatomy stack.
type anatFrame struct {
	name  string
	start CostSnapshot
	child PhaseCost // closed nested phases, deducted from this frame's row
}

// Span runs one protocol phase, collects its cost delta into the round's
// anatomy, and — with a recorder attached — also records it as a span on the
// context's sim cost clock, so every round leaves a phase-by-phase trace.
// Anatomy collection is unconditional: it reads only the cost accumulator,
// which is always live.
func (r *phaseRecorder) Span(phase string, fn func() error) error {
	ctx := r.ctx
	start := ctx.SimCost()
	r.frames = append(r.frames, anatFrame{name: phase, start: ctx.Costs.Snapshot()})
	err := fn()
	r.closeFrame()
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

// closeFrame pops the innermost phase frame: its cost delta minus any
// nested phases' deltas becomes the phase's anatomy row, and the full delta
// rolls up into the parent frame so the parent's own row excludes it.
// Rows therefore land in frame-closing order (children before parents) and
// sum exactly to the round's whole-run cost delta.
func (r *phaseRecorder) closeFrame() {
	n := len(r.frames) - 1
	fr := r.frames[n]
	r.frames = r.frames[:n]
	delta := phaseDelta(fr.start, r.ctx.Costs.Snapshot())
	row := delta.sub(fr.child)
	row.Phase = fr.name
	r.anat.Phases = append(r.anat.Phases, row)
	if n > 0 {
		r.frames[n-1].child = r.frames[n-1].child.add(delta)
	}
}
