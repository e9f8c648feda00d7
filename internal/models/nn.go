package models

import (
	"fmt"

	"flbooster/internal/datasets"
	"flbooster/internal/fl"
	"flbooster/internal/mpint"
)

// HeteroNN is a vertically federated neural network with an HE-protected
// interactive layer (FATE's Hetero NN shape). Guest and hosts each own a
// linear bottom tower mapping their feature slice to a shared hidden width;
// the interactive layer merges the towers additively under encryption and
// the guest's top model produces the prediction:
//
//	a_p = W_p · x_p                      (bottom towers, per party)
//	z   = Σ_p a_p + b                    (interactive layer, HE-aggregated)
//	m   = σ(z)                           (hidden activation, guest)
//	ŷ   = σ(w_top · m)                   (top model, guest)
//
// Forward activations are an *aggregatable* flow (batch-compressible): the
// hosts' go encrypted to the arbiter, which returns their raw quantized sums
// to the guest, and the guest adds its own (vertical.secureSum; beside a lone
// host the guest's go to the arbiter too).
// Backward, the per-sample hidden deltas E(δ), sample by sample and Hidden a
// sample, drive the hosts' homomorphic weight-gradient accumulation: the
// Hetero LR gradient step per hidden unit, the same code (vertical.hostSteps).
// Under batch compression the broadcast carries s deltas a ciphertext, s from
// fl.Context.BroadcastStride over Hidden × batch rows and Hidden × dim sums a
// host, and the per-(unit, feature) sums go back to the arbiter packed on the
// return path (fl.Party.OpenBroadcastSums); without it, one of each a
// ciphertext.
type HeteroNN struct {
	vertical

	// Hidden is the interactive-layer width.
	Hidden int
	// W[p] is party p's bottom tower, Hidden × dim_p (row-major by unit).
	W [][]float64
	// HiddenBias and Top are guest-held.
	HiddenBias []float64
	Top        []float64
	TopBias    float64

	optW   []*Adam // per-party bottom-tower optimizers
	optTop *Adam   // guest head: [Top..., HiddenBias..., TopBias]

	// Minibatch scratch (vertical's lifetime rule): each party's bottom
	// activations, the hidden deltas, one party's tower gradient at a time,
	// one row's hidden activations in topStep, and the guest head's
	// parameters and gradients.
	acts                 [][]float64
	deltas, grad, hAct   []float64
	headParams, headGrad []float64
}

// actScale normalizes activations into the quantizer's interval.
const actScale = 8

// NewHeteroNN partitions ds vertically and initializes a two-tower network
// with the given hidden width.
func NewHeteroNN(ctx *fl.Context, ds *datasets.Dataset, hidden int, opts Options) (*HeteroNN, error) {
	if hidden < 1 {
		return nil, fmt.Errorf("models: hidden width must be positive, got %d", hidden)
	}
	v, err := newVertical(ctx, ds, opts, "HeteroNN", arbiterName)
	if err != nil {
		return nil, err
	}
	parties := len(v.parts)
	m := &HeteroNN{
		vertical:   v,
		Hidden:     hidden,
		W:          make([][]float64, parties),
		HiddenBias: make([]float64, hidden),
		Top:        make([]float64, hidden),
		acts:       make([][]float64, parties),
	}
	rng := mpint.NewRNG(opts.Seed ^ 0xA5A5)
	m.optW = make([]*Adam, parties)
	m.optTop = NewAdam(opts.LearningRate)
	for p, part := range v.parts {
		m.W[p] = make([]float64, hidden*part.NumFeatures)
		for i := range m.W[p] {
			m.W[p][i] = rng.NormFloat64() * 0.05
		}
		m.optW[p] = NewAdam(opts.LearningRate)
	}
	for i := range m.Top {
		m.Top[i] = rng.NormFloat64() * 0.3
	}
	return m, nil
}

// bottomForward computes party p's activations for rows [lo, hi) into
// m.acts[p]: a[i][u] = Σ_j W_p[u,j]·x_ij, flattened sample-major.
func (m *HeteroNN) bottomForward(p, lo, hi int) {
	part := m.parts[p]
	dim := part.NumFeatures
	out := zeroed(&m.acts[p], (hi-lo)*m.Hidden)
	for i := lo; i < hi; i++ {
		fv := part.Examples[i].Features
		row := out[(i-lo)*m.Hidden:]
		for u := 0; u < m.Hidden; u++ {
			wRow := m.W[p][u*dim : (u+1)*dim]
			var s float64
			for k, j := range fv.Idx {
				s += fv.Val[k] * wRow[j]
			}
			row[u] = s
		}
	}
}

// bottomForwards computes every party's activations for rows [lo, hi) into
// m.acts.
func (m *HeteroNN) bottomForwards(lo, hi int) [][]float64 {
	for p := range m.parts {
		m.bottomForward(p, lo, hi)
	}
	return m.acts
}

// Loss implements Model: the full network's plaintext forward pass over every
// row.
func (m *HeteroNN) Loss() float64 {
	z := m.sumVecs(m.bottomForwards(0, m.full.Len()))
	var loss float64
	for i, ex := range m.full.Examples {
		var logit float64
		for u := 0; u < m.Hidden; u++ {
			logit += datasets.Sigmoid(z[i*m.Hidden+u]+m.HiddenBias[u]) * m.Top[u]
		}
		loss += crossEntropy(datasets.Sigmoid(logit+m.TopBias), ex.Label)
	}
	return loss / float64(m.full.Len())
}

// TrainEpoch implements Model.
func (m *HeteroNN) TrainEpoch() (float64, error) {
	for _, r := range m.batches {
		if err := m.trainBatch(r[0], r[1]); err != nil {
			return 0, err
		}
	}
	return m.Loss(), nil
}

func (m *HeteroNN) trainBatch(lo, hi int) error {
	// Forward, interactive layer: the parties' activation blocks merge in the
	// aggregatable flow, normalized by actScale into the quantizer interval.
	var acts [][]float64
	m.track(func() { acts = m.bottomForwards(lo, hi) })
	z, err := m.secureSum(acts, actScale, "acts", "act-plain")
	if err != nil {
		return err
	}

	// Guest: top model forward + backward; hidden deltas.
	deltas := zeroed(&m.deltas, (hi-lo)*m.Hidden) // δ w.r.t. pre-activation z
	m.track(func() { m.topStep(z, deltas, lo, hi) })
	if m.ctx == nil {
		for p := range m.parts {
			m.bottomUpdate(p, deltas, lo, hi)
		}
		return nil
	}

	// Backward: the guest, which owns the deltas, updates its own tower in
	// plaintext; every host takes its homomorphic gradient step from the
	// broadcast deltas, which the quantizer clamps into its interval, its
	// sums scaled by 1/F (the deltas already carry the 1/n).
	m.track(func() { m.bottomUpdate(0, deltas, lo, hi) })
	return m.hostSteps(deltas, m.Hidden, lo, hi, "deltas", "nn-grad", "nn-grad-plain", func(p int, grads []float64) {
		for i := range grads {
			grads[i] = grads[i]*(1/fixedPoint) + m.opts.L2*m.W[p][i]
		}
		m.optW[p].Step(m.W[p], grads)
	})
}

// topStep computes the guest-side forward through the top model, updates the
// top weights, and fills the hidden-layer deltas.
func (m *HeteroNN) topStep(z, deltas []float64, lo, hi int) {
	n := hi - lo
	// One optimizer step over the guest head [Top..., HiddenBias..., TopBias]:
	// grads gathers Top's gradient, the hidden biases' and the top bias'.
	grads := zeroed(&m.headGrad, 2*m.Hidden+1)
	hAct := zeroed(&m.hAct, m.Hidden)
	for i := 0; i < n; i++ {
		var logit float64
		for u := 0; u < m.Hidden; u++ {
			h := datasets.Sigmoid(z[i*m.Hidden+u] + m.HiddenBias[u])
			hAct[u] = h
			logit += h * m.Top[u]
		}
		p := datasets.Sigmoid(logit + m.TopBias)
		dOut := (p - m.full.Examples[lo+i].Label) / float64(n)
		grads[2*m.Hidden] += dOut
		for u := 0; u < m.Hidden; u++ {
			grads[u] += dOut * hAct[u]
			d := dOut * m.Top[u] * hAct[u] * (1 - hAct[u])
			deltas[i*m.Hidden+u] = d * float64(n) // per-sample (mean applied later)
			grads[m.Hidden+u] += d
		}
	}
	params := zeroed(&m.headParams, 2*m.Hidden+1)
	copy(params, m.Top)
	copy(params[m.Hidden:], m.HiddenBias)
	params[2*m.Hidden] = m.TopBias
	for u := 0; u < m.Hidden; u++ {
		grads[u] += m.opts.L2 * m.Top[u]
	}
	m.optTop.Step(params, grads)
	copy(m.Top, params[:m.Hidden])
	copy(m.HiddenBias, params[m.Hidden:2*m.Hidden])
	m.TopBias = params[2*m.Hidden]
	// Rescale deltas to per-sample means for the weight gradients.
	for i := range deltas {
		deltas[i] /= float64(n)
	}
}

// bottomUpdate applies party p's tower gradient from plaintext deltas: the
// guest's under every profile, and in oracle mode every host's too.
func (m *HeteroNN) bottomUpdate(p int, deltas []float64, lo, hi int) {
	part := m.parts[p]
	dim := part.NumFeatures
	grads := zeroed(&m.grad, m.Hidden*dim)
	for i := lo; i < hi; i++ {
		fv := part.Examples[i].Features
		for u := 0; u < m.Hidden; u++ {
			d := deltas[(i-lo)*m.Hidden+u]
			if d == 0 {
				continue
			}
			row := grads[u*dim : (u+1)*dim]
			for k, j := range fv.Idx {
				row[j] += d * fv.Val[k]
			}
		}
	}
	for i := range grads {
		grads[i] += m.opts.L2 * m.W[p][i]
	}
	m.optW[p].Step(m.W[p], grads)
}
