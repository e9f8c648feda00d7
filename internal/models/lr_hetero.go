package models

import (
	"fmt"

	"flbooster/internal/datasets"
	"flbooster/internal/fl"
	"flbooster/internal/flnet"
	"flbooster/internal/paillier"
)

// HeteroLR is vertically federated logistic regression following the FATE
// protocol shape (§VI, Hetero LR). Party 0 is the guest (labels plus its
// feature slice); the remaining parties are hosts; the arbiter holds the
// Paillier private key.
//
// Per minibatch:
//
//  1. every party computes partial scores z_p = w_p·x_p locally;
//  2. parties encrypt z_p and the guest aggregates the ciphertexts
//     homomorphically (an *aggregatable* flow — packed under batch
//     compression), forwarding the encrypted sum to the arbiter, which
//     decrypts and returns the plaintext scores to the guest;
//  3. the guest computes exact residuals d = σ(z) − y, encrypts them s to a
//     ciphertext (the per-sample broadcast; s = 1 without batch compression,
//     with it the stride fl.Context.BroadcastStride picks from the batch's
//     public shape) and sends E(d) to the hosts;
//  4. every host accumulates its encrypted gradient ∑ᵢ E(dᵢ)^{x̃ᵢⱼ} with
//     fixed-point feature values x̃, sign-split so negative features stay in
//     the unsigned domain — at s > 1 the convolution whose target slot holds
//     that sum (fl.Context.BroadcastSums); the guest, who holds d in
//     plaintext, computes its own slice directly;
//  5. the per-feature sums return to the arbiter (the return path — masked
//     and packed under batch compression, fl.Context.OpenBroadcastSums), each
//     host removes the quantization shift with its locally known correction
//     term ∑ᵢ x̃ᵢⱼ and applies the SGD step.
type HeteroLR struct {
	opts  Options
	ctx   *fl.Context // nil in plaintext-oracle mode
	net   flnet.Transport
	parts []*datasets.Dataset
	full  *datasets.Dataset

	// W holds each party's weight slice; offsets map into the full space.
	W       [][]float64
	offsets []int
	// Bias is the guest-held intercept.
	Bias float64

	opts2 []*Adam // per-party weight optimizers
	optB  *Adam   // guest bias optimizer
	// weighted is each party's homomorphic gradient step, kept across
	// minibatches (only the hosts', p ≥ 1, are used).
	weighted []weightedSums
	// hostSums is the sums each host returns a minibatch at most, 2 × its
	// feature count: the public shape BroadcastStride reads.
	hostSums []int

	// zScale bounds partial scores into the quantizer's interval.
	zScale float64
	// fixedPoint is F, the feature fixed-point scale for x̃ = round(|x|·F).
	fixedPoint float64
}

// Party names for the vertical topology.
const arbiterName = "arbiter"

func hostName(p int) string { return fmt.Sprintf("party%d", p) }

// NewHeteroLR partitions ds vertically across the context's parties.
func NewHeteroLR(ctx *fl.Context, ds *datasets.Dataset, opts Options) (*HeteroLR, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	parties := oracleParties(opts)
	if ctx != nil {
		parties = ctx.Profile.Parties
	}
	parts, err := datasets.PartitionVertical(ds, parties)
	if err != nil {
		return nil, fmt.Errorf("models: HeteroLR partition: %w", err)
	}
	m := &HeteroLR{
		opts:       opts,
		ctx:        ctx,
		parts:      parts,
		full:       ds,
		W:          make([][]float64, parties),
		offsets:    make([]int, parties),
		zScale:     8,
		fixedPoint: 128,
	}
	off := 0
	m.opts2 = make([]*Adam, parties)
	m.weighted = make([]weightedSums, parties)
	m.optB = NewAdam(opts.LearningRate)
	for p, part := range parts {
		m.W[p] = make([]float64, part.NumFeatures)
		m.offsets[p] = off
		off += part.NumFeatures
		m.opts2[p] = NewAdam(opts.LearningRate)
		if p > 0 {
			m.hostSums = append(m.hostSums, 2*part.NumFeatures)
		}
	}
	if ctx != nil {
		names := make([]string, 0, parties+1)
		for p := 0; p < parties; p++ {
			names = append(names, hostName(p))
		}
		names = append(names, arbiterName)
		m.net = flnet.NewSimTransport(ctx.Link, names...)
	}
	return m, nil
}

// Name implements Model.
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
// representable interval.
func (m *HeteroLR) residuals(z []float64, lo int) []float64 {
	bound := trainCtx{m.ctx}.gradBound()
	d := make([]float64, len(z))
	for i := range z {
		d[i] = clampGrad(datasets.Sigmoid(z[i])-m.parts[0].Examples[lo+i].Label, bound)
	}
	return d
}

func (m *HeteroLR) trainBatch(lo, hi int) error {
	if m.ctx == nil {
		return m.trainBatchPlain(lo, hi)
	}
	parties := len(m.parts)
	n := hi - lo

	// Step 1: local partial scores (model compute).
	zs := make([][]float64, parties)
	m.ctx.TrackOther(func() {
		for p := 0; p < parties; p++ {
			zs[p] = m.partialScores(p, lo, hi)
		}
	})

	// Step 2: encrypted score aggregation — the packable flow. Scores are
	// normalized by zScale to fit the quantizer's interval.
	batches := make([][]paillier.Ciphertext, parties)
	for p := 0; p < parties; p++ {
		norm := make([]float64, n)
		for i, z := range zs[p] {
			norm[i] = clampGrad(z/m.zScale, m.ctx.Quant.Alpha())
		}
		cts, err := m.ctx.EncryptGradients(norm)
		if err != nil {
			return fmt.Errorf("models: party %d score encrypt: %w", p, err)
		}
		if p != 0 {
			if err := m.send(hostName(p), hostName(0), "scores", ciphertextBytes(m.ctx, len(cts))); err != nil {
				return err
			}
		}
		batches[p] = cts
	}
	agg, err := aggregate(m.ctx, batches)
	if err != nil {
		return err
	}
	if err := m.send(hostName(0), arbiterName, "score-agg", ciphertextBytes(m.ctx, len(agg))); err != nil {
		return err
	}
	zsum, err := m.ctx.DecryptAggregated(agg, n, parties)
	if err != nil {
		return err
	}
	fl.ReleaseCiphertexts(agg)
	for i := range zsum {
		zsum[i] *= m.zScale
	}
	if err := m.send(arbiterName, hostName(0), "scores-plain", int64(8*n)); err != nil {
		return err
	}

	// Step 3: guest residuals, encrypted s a ciphertext.
	var d []float64
	m.ctx.TrackOther(func() { d = m.residuals(zsum, lo) })
	s := m.ctx.BroadcastStride(n, m.hostSums)
	encD, err := m.ctx.EncryptBroadcast(d, s)
	if err != nil {
		return err
	}
	for p := 1; p < parties; p++ {
		if err := m.send(hostName(0), hostName(p), "residuals", ciphertextBytes(m.ctx, len(encD))); err != nil {
			return err
		}
	}

	// Steps 4–5: the hosts' homomorphic gradients through the arbiter; the
	// guest's gradient and bias step from the plaintext residuals it holds.
	for p := 1; p < parties; p++ {
		if err := m.hostGradientStep(p, lo, hi, encD, s); err != nil {
			return fmt.Errorf("models: party %d gradient: %w", p, err)
		}
	}
	fl.ReleaseCiphertexts(encD)
	m.ctx.TrackOther(func() {
		m.plainGradientStep(0, lo, hi, d)
		m.biasStep(d, n)
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
// oracle's step for every party, and the guest's under every profile.
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

// hostGradientStep runs steps 4–5 for one host over the stride-s broadcast
// encD: encrypted weighted sums per feature, arbiter round trip, shift
// correction, SGD update.
func (m *HeteroLR) hostGradientStep(p, lo, hi int, encD []paillier.Ciphertext, s int) error {
	part := m.parts[p]
	ws := &m.weighted[p]
	splits := ws.reset(part.NumFeatures)
	for i := lo; i < hi; i++ {
		fv := part.Examples[i].Features
		for k, j := range fv.Idx {
			if err := splits[j].add(i-lo, fv.Val[k], m.fixedPoint); err != nil {
				return err
			}
		}
	}
	route := fl.ReturnRoute{Net: m.net, Party: hostName(p), Decryptor: arbiterName, Kind: "grad-sums", ReplyKind: "grad-plain"}
	sums, err := ws.open(m.ctx, route, encD, s)
	if err != nil {
		return err
	}
	grads := make([]float64, part.NumFeatures)
	scale := 1 / (m.fixedPoint * float64(hi-lo))
	for j, v := range sums {
		grads[j] = v * scale
	}
	m.ctx.TrackOther(func() {
		for j := range grads {
			grads[j] += m.opts.L2 * m.W[p][j]
		}
		m.opts2[p].Step(m.W[p], grads)
	})
	return nil
}

// trainBatchPlain is the oracle: exact vertical SGD without encryption.
func (m *HeteroLR) trainBatchPlain(lo, hi int) error {
	n := hi - lo
	z := make([]float64, n)
	for p := range m.parts {
		zp := m.partialScores(p, lo, hi)
		for i := range z {
			z[i] += zp[i]
		}
	}
	d := m.residuals(z, lo)
	for p := range m.parts {
		m.plainGradientStep(p, lo, hi, d)
	}
	m.biasStep(d, n)
	return nil
}

// send routes a protocol message through the transport, charging the
// context's communication component.
func (m *HeteroLR) send(from, to, kind string, payloadBytes int64) error {
	return m.ctx.Send(m.net, from, to, kind, payloadBytes)
}

// Close releases the transport.
func (m *HeteroLR) Close() error {
	if m.net == nil {
		return nil
	}
	return m.net.Close()
}

// ciphertextBytes is the wire size of n ciphertexts under ctx's key.
func ciphertextBytes(ctx *fl.Context, n int) int64 { return ctx.CiphertextWireBytes(n) }
