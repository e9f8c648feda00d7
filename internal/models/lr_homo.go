package models

import (
	"fmt"

	"flbooster/internal/datasets"
	"flbooster/internal/fl"
)

// HomoLR is horizontally federated logistic regression: every party holds a
// shard of instances over the full feature space, computes local minibatch
// gradients, and the parties run the secure-aggregation round of Fig. 2 to
// average them under encryption.
type HomoLR struct {
	opts  Options
	fed   *fl.Federation // nil in plaintext-oracle mode
	parts []*datasets.Dataset
	full  *datasets.Dataset

	// Weights is the shared global model (read-only between epochs).
	Weights []float64
	// Bias is the shared intercept.
	Bias float64

	opt *Adam
	// rounds are the minibatch ranges every epoch walks: the smallest shard's,
	// so every round has all parties; computed once.
	rounds [][2]int

	// Minibatch scratch, reused by every round: each party's local gradient,
	// the plaintext oracle's sum, and the optimizer step's averaged gradient
	// and parameter vectors, all [weights..., bias].
	grads        [][]float64
	sum          []float64
	step, params []float64
}

// NewHomoLR partitions ds horizontally across the context's parties and
// prepares a trainer. ctx may be nil for the plaintext oracle.
func NewHomoLR(ctx *fl.Context, ds *datasets.Dataset, opts Options) (*HomoLR, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	parties := oracleParties(opts)
	var fed *fl.Federation
	if ctx != nil {
		parties = ctx.Profile.Parties
		fed = fl.NewFederation(ctx)
	}
	parts, err := datasets.PartitionHorizontal(ds, parties)
	if err != nil {
		return nil, fmt.Errorf("models: HomoLR partition: %w", err)
	}
	rounds := parts[0].Batches(opts.BatchSize)
	for _, p := range parts[1:] {
		if b := p.Batches(opts.BatchSize); len(b) < len(rounds) {
			rounds = b
		}
	}
	width := ds.NumFeatures + 1
	grads := make([][]float64, len(parts))
	for p := range grads {
		grads[p] = make([]float64, width)
	}
	return &HomoLR{
		opts:    opts,
		fed:     fed,
		parts:   parts,
		full:    ds,
		Weights: make([]float64, ds.NumFeatures),
		opt:     NewAdam(opts.LearningRate),
		rounds:  rounds,
		grads:   grads,
		sum:     make([]float64, width),
		step:    make([]float64, width),
		params:  make([]float64, width),
	}, nil
}

// Loss implements Model.
func (m *HomoLR) Loss() float64 { return logisticLoss(m.Weights, m.Bias, m.full) }

// localGradient computes one party's minibatch gradient (mean logistic
// gradient + L2) over rows [lo, hi) of its shard into g. The bias gradient is
// the final element so it rides the same encrypted vector.
func (m *HomoLR) localGradient(g []float64, part *datasets.Dataset, lo, hi int) {
	clear(g)
	n := hi - lo
	if n == 0 {
		return
	}
	for _, ex := range part.Examples[lo:hi] {
		err := datasets.Sigmoid(ex.Features.Dot(m.Weights)+m.Bias) - ex.Label
		ex.Features.AddScaledInto(g[:len(m.Weights)], err/float64(n))
		g[len(m.Weights)] += err / float64(n)
	}
	for j, w := range m.Weights {
		g[j] += m.opts.L2 * w
	}
}

// TrainEpoch implements Model: every party walks its shard in minibatches;
// each round aggregates the per-party gradients securely and applies the
// averaged update.
func (m *HomoLR) TrainEpoch() (float64, error) {
	parties := len(m.parts)
	for _, r := range m.rounds {
		if m.fed != nil {
			m.fed.Ctx.TrackOther(func() {
				m.computeLocalGrads(r)
			})
			sum, err := m.fed.SecureAggregate(m.grads)
			if err != nil {
				return 0, err
			}
			m.fed.Ctx.TrackOther(func() {
				m.apply(sum, parties)
			})
		} else {
			m.computeLocalGrads(r)
			sum := m.sum
			clear(sum)
			for _, g := range m.grads {
				for j, v := range g {
					sum[j] += v
				}
			}
			m.apply(sum, parties)
		}
	}
	return m.Loss(), nil
}

// computeLocalGrads fills m.grads with every party's clamped gradient over
// minibatch r.
func (m *HomoLR) computeLocalGrads(r [2]int) {
	for p, part := range m.parts {
		lo, hi := r[0], r[1]
		if hi > part.Len() {
			hi = part.Len()
		}
		if lo > hi {
			lo = hi
		}
		g := m.grads[p]
		m.localGradient(g, part, lo, hi)
		for j := range g {
			g[j] = clampGrad(g[j])
		}
	}
}

// apply performs the averaged optimizer step from the aggregated gradient
// sum. Parameters are laid out [weights..., bias] so the optimizer's moment
// state stays index-stable across rounds.
func (m *HomoLR) apply(sum []float64, parties int) {
	dim := len(m.Weights)
	g, params := m.step, m.params
	for j := range g {
		g[j] = sum[j] / float64(parties)
	}
	copy(params, m.Weights)
	params[dim] = m.Bias
	m.opt.Step(params, g)
	copy(m.Weights, params[:dim])
	m.Bias = params[dim]
}

// Close releases the federation transport.
func (m *HomoLR) Close() error {
	if m.fed == nil {
		return nil
	}
	return m.fed.Close()
}
