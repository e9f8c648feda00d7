package models

import (
	"flbooster/internal/datasets"
	"flbooster/internal/fl"
)

// HeteroLR is vertically federated logistic regression following the FATE
// protocol shape (§VI, Hetero LR). Party 0 is the guest (labels plus its
// feature slice); the remaining parties are hosts; the arbiter holds the
// Paillier private key.
//
// Per minibatch:
//
//  1. every party computes partial scores z_p = w_p·x_p locally;
//  2. every host encrypts its z_p (an *aggregatable* flow — packed under
//     batch compression) and sends it to the arbiter, which aggregates the
//     ciphertexts homomorphically and returns the hosts' raw quantized sums
//     to the guest; the guest adds its own quantized z_0 and dequantizes the
//     scores (vertical.secureSum; beside a lone host the guest's encrypted
//     z_0 goes to the arbiter too, which never opens one party's vector);
//  3. the guest computes exact residuals d = σ(z) − y, encrypts them s to a
//     ciphertext (the per-sample broadcast; s = 1 without batch compression,
//     with it the stride fl.Context.BroadcastStride picks from the batch's
//     public shape) and sends E(d) to the hosts;
//  4. every host accumulates its encrypted gradient ∑ᵢ E(dᵢ)^{σᵢⱼx̃ᵢⱼ} with
//     fixed-point feature magnitudes x̃ and their signs σ, one signed sum a
//     feature opening as that sum plus the public offset 2⁶³ — at s > 1 the
//     convolution whose target slot holds it (fl.Party.BroadcastSums); the
//     guest, who holds d in plaintext, computes its own slice directly;
//  5. the per-feature sums return to the arbiter (the return path — masked
//     and packed under batch compression, fl.Party.OpenBroadcastSums), each
//     host removes the offset and the quantization shift with its locally
//     known correction term ∑ᵢ σᵢⱼx̃ᵢⱼ and applies the SGD step.
type HeteroLR struct {
	vertical

	// W holds each party's weight slice; offsets map into the full space.
	W       [][]float64
	offsets []int
	// Bias is the guest-held intercept.
	Bias float64

	opts2 []*Adam // per-party weight optimizers
	optB  *Adam   // guest bias optimizer

	// zScale bounds partial scores into the quantizer's interval.
	zScale float64
}

// NewHeteroLR partitions ds vertically across the context's parties.
func NewHeteroLR(ctx *fl.Context, ds *datasets.Dataset, opts Options) (*HeteroLR, error) {
	v, err := newVertical(ctx, ds, opts, "HeteroLR", arbiterName)
	if err != nil {
		return nil, err
	}
	parties := len(v.parts)
	m := &HeteroLR{
		vertical: v,
		W:        make([][]float64, parties),
		offsets:  make([]int, parties),
		zScale:   8,
	}
	off := 0
	m.opts2 = make([]*Adam, parties)
	m.optB = NewAdam(opts.LearningRate)
	for p, part := range v.parts {
		m.W[p] = make([]float64, part.NumFeatures)
		m.offsets[p] = off
		off += part.NumFeatures
		m.opts2[p] = NewAdam(opts.LearningRate)
	}
	return m, nil
}

// fullWeights concatenates per-party slices into the original feature order.
func (m *HeteroLR) fullWeights() []float64 {
	w := make([]float64, m.full.NumFeatures)
	for p, wp := range m.W {
		copy(w[m.offsets[p]:], wp)
	}
	return w
}

// Loss implements Model.
func (m *HeteroLR) Loss() float64 { return logisticLoss(m.fullWeights(), m.Bias, m.full) }

// TrainEpoch implements Model.
func (m *HeteroLR) TrainEpoch() (float64, error) {
	for _, r := range m.full.Batches(m.opts.BatchSize) {
		if err := m.trainBatch(r[0], r[1]); err != nil {
			return 0, err
		}
	}
	return m.Loss(), nil
}

// partialScores computes z_p for rows [lo, hi) of party p.
func (m *HeteroLR) partialScores(p, lo, hi int) []float64 {
	z := make([]float64, hi-lo)
	for i := lo; i < hi; i++ {
		z[i-lo] = m.parts[p].Examples[i].Features.Dot(m.W[p])
	}
	if p == 0 {
		for i := range z {
			z[i] += m.Bias
		}
	}
	return z
}

// residuals computes d = σ(z) − y on the guest, clamped to the quantizer's
// representable interval (to [−1, 1] in oracle mode).
func (m *HeteroLR) residuals(z []float64, lo int) []float64 {
	bound := 1.0 // the oracle's clamp
	if m.ctx != nil {
		bound = m.ctx.Quant.Alpha()
	}
	d := make([]float64, len(z))
	for i := range z {
		d[i] = clampGrad(datasets.Sigmoid(z[i])-m.parts[0].Examples[lo+i].Label, bound)
	}
	return d
}

func (m *HeteroLR) trainBatch(lo, hi int) error {
	parties := len(m.parts)

	// Step 1: local partial scores (model compute).
	zs := make([][]float64, parties)
	m.track(func() {
		for p := range parties {
			zs[p] = m.partialScores(p, lo, hi)
		}
	})

	// Step 2: score aggregation — the packable flow, the hosts' through the
	// arbiter. Scores are normalized by zScale to fit the quantizer's interval.
	z, err := m.secureSum(zs, m.zScale, "scores", "scores-plain")
	if err != nil {
		return err
	}

	// Steps 3–5: guest residuals, the hosts' gradient steps — homomorphic,
	// their sums scaled by 1/(F·n); in oracle mode from the plaintext
	// residuals — and the guest's gradient and bias step from the plaintext
	// residuals it holds.
	var d []float64
	m.track(func() { d = m.residuals(z, lo) })
	if m.ctx == nil {
		for p := 1; p < parties; p++ {
			m.plainGradientStep(p, lo, hi, d)
		}
	} else if err := m.hostSteps(d, 1, lo, hi, "residuals", "grad-sums", "grad-plain", func(p int, sums []float64) {
		grads := make([]float64, len(m.W[p]))
		scale := 1 / (fixedPoint * float64(hi-lo))
		for j, v := range sums {
			grads[j] = v * scale
		}
		for j := range grads {
			grads[j] += m.opts.L2 * m.W[p][j]
		}
		m.opts2[p].Step(m.W[p], grads)
	}); err != nil {
		return err
	}
	m.track(func() {
		m.plainGradientStep(0, lo, hi, d)
		m.biasStep(d, hi-lo)
	})
	return nil
}

// biasStep applies the intercept update through the guest's optimizer.
func (m *HeteroLR) biasStep(d []float64, n int) {
	var db float64
	for _, v := range d {
		db += v
	}
	params := []float64{m.Bias}
	m.optB.Step(params, []float64{db / float64(n)})
	m.Bias = params[0]
}

// plainGradientStep applies party p's SGD step from plaintext residuals: the
// guest's under every profile, and in oracle mode every host's too.
func (m *HeteroLR) plainGradientStep(p, lo, hi int, d []float64) {
	part := m.parts[p]
	n := hi - lo
	grads := make([]float64, part.NumFeatures)
	for i := lo; i < hi; i++ {
		part.Examples[i].Features.AddScaledInto(grads, d[i-lo]/float64(n))
	}
	for j := range grads {
		grads[j] += m.opts.L2 * m.W[p][j]
	}
	m.opts2[p].Step(m.W[p], grads)
}
