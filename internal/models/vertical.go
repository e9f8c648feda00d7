package models

import (
	"fmt"

	"flbooster/internal/datasets"
	"flbooster/internal/fl"
)

// Party names for the vertical topology: the guest is party0, the hosts
// party1 … partyN−1, and the arbiter holds the Paillier key.
const arbiterName = "arbiter"

func hostName(p int) string { return fmt.Sprintf("party%d", p) }

// vertical is the skeleton the three Hetero models share: the options, the
// feature slices of a vertical partition (party 0, the guest, holds the
// labels), and in encrypted mode the context that charges every message
// between the parties and the arbiter. With a nil context it is the plaintext
// oracle's skeleton: the same partition, send a no-op and secureSum a
// plaintext sum.
type vertical struct {
	opts  Options
	ctx   *fl.Context // nil in plaintext-oracle mode
	parts []*datasets.Dataset
	full  *datasets.Dataset
	// weighted is each host's homomorphic gradient step (hostSteps), kept
	// across minibatches; the guest's, p = 0, is unused.
	weighted []weightedSums
}

// fixedPoint is F, the fixed-point scale of the feature values that weigh a
// host's gradient sums: x̃ = round(|x|·F). A float, so that 1/fixedPoint is
// not the integer 0.
const fixedPoint = 128.0

// newVertical checks opts and partitions ds across the context's parties —
// opts.Parties in oracle mode — for the named model.
func newVertical(ctx *fl.Context, ds *datasets.Dataset, opts Options, model string) (vertical, error) {
	if err := opts.validate(); err != nil {
		return vertical{}, err
	}
	parties := oracleParties(opts)
	if ctx != nil {
		parties = ctx.Profile.Parties
	}
	parts, err := datasets.PartitionVertical(ds, parties)
	if err != nil {
		return vertical{}, fmt.Errorf("models: %s partition: %w", model, err)
	}
	return vertical{opts: opts, ctx: ctx, parts: parts, full: ds, weighted: make([]weightedSums, len(parts))}, nil
}

// send charges one protocol message to the context's communication
// component; in oracle mode there is no wire.
func (v *vertical) send(from, to, kind string, payloadBytes int64) {
	if v.ctx != nil {
		v.ctx.Send(from, to, kind, payloadBytes)
	}
}

// track runs fn as model computation, timed as the context's "other"
// component; in oracle mode there is no clock.
func (v *vertical) track(fn func()) {
	if v.ctx == nil {
		fn()
		return
	}
	v.ctx.TrackOther(fn)
}

// Close releases nothing: the messages are charged, not sent.
func (v *vertical) Close() error { return nil }

// sumVecs is the plaintext elementwise sum of the parties' vectors, party 0
// first.
func sumVecs(vecs [][]float64) []float64 {
	sum := make([]float64, len(vecs[0]))
	for _, vec := range vecs {
		for i, x := range vec {
			sum[i] += x
		}
	}
	return sum
}

// secureSum is the aggregatable flow (Hetero LR's partial scores, Hetero NN's
// interactive layer): every party encrypts its vector, divided by scale and
// clamped into the quantizer's interval — packed under batch compression —
// the hosts send theirs to the guest (kind), the guest folds them
// homomorphically, party 0 first, through an unbounded aggregation tree
// (Context.NewAggTree(0), the flat left fold every round folds through), and
// forwards the aggregate to the arbiter (aggKind), and the arbiter decrypts
// and returns the plaintext sum (replyKind), which comes back multiplied by
// scale. Each party's batch is folded as it arrives and dies once the tree
// has it, each running sum at the next fold, the aggregate once decrypted.
// In oracle mode it is the exact sum, unscaled.
func (v *vertical) secureSum(vecs [][]float64, scale float64, kind, aggKind, replyKind string) ([]float64, error) {
	if v.ctx == nil {
		return sumVecs(vecs), nil
	}
	tree, err := v.ctx.NewAggTree(0)
	if err != nil {
		return nil, err
	}
	for p, vec := range vecs {
		norm := make([]float64, len(vec))
		for i, x := range vec {
			norm[i] = clampGrad(x/scale, v.ctx.Quant.Alpha())
		}
		cts, err := v.ctx.EncryptGradients(norm)
		if err != nil {
			return nil, fmt.Errorf("models: party %d %s encrypt: %w", p, kind, err)
		}
		if p != 0 {
			v.send(hostName(p), hostName(0), kind, v.ctx.CiphertextWireBytes(len(cts)))
		}
		err = tree.Add(cts)
		fl.ReleaseCiphertexts(cts) // the tree copied or summed it
		if err != nil {
			return nil, err
		}
	}
	agg, err := tree.Root()
	if err != nil {
		return nil, err
	}
	v.send(hostName(0), arbiterName, aggKind, v.ctx.CiphertextWireBytes(len(agg)))
	sum, err := v.ctx.DecryptAggregated(agg, len(vecs[0]), len(vecs))
	if err != nil {
		return nil, err
	}
	fl.ReleaseCiphertexts(agg)
	v.send(arbiterName, hostName(0), replyKind, int64(8*len(sum)))
	for i := range sum {
		sum[i] *= scale
	}
	return sum, nil
}

// hostSteps is the homomorphic gradient step Hetero LR and Hetero NN share,
// over rows [lo, hi). vals are the guest's values, units a row, row after row
// (Hetero LR's residuals, one a row; Hetero NN's hidden deltas, Hidden a
// row), already clamped into the quantizer's interval. The guest encrypts
// them s a ciphertext — s the stride fl.Context.BroadcastStride picks from the
// value count and each host's units × features sums — and sends them to every
// host (kind). Each host weighs them into one signed sum a (unit, feature),
// Σᵢ E(v_{iu})^(σᵢⱼx̃ᵢⱼ) laid out unit by unit, and opens the sums through the
// arbiter (sumKind, replyKind; weightedSums.open). step gets each host's
// totals in fixed-point units, nil when no sum had a term, and is timed as
// model computation.
func (v *vertical) hostSteps(vals []float64, units, lo, hi int, kind, sumKind, replyKind string, step func(p int, totals []float64)) error {
	// A constant capacity keeps the counts off the heap for up to 8 hosts.
	counts := make([]int, 0, 8)
	for _, part := range v.parts[1:] {
		counts = append(counts, units*part.NumFeatures)
	}
	s := v.ctx.BroadcastStride(len(vals), counts)
	encV, err := v.ctx.EncryptBroadcast(vals, s)
	if err != nil {
		return err
	}
	for p := 1; p < len(v.parts); p++ {
		v.send(hostName(0), hostName(p), kind, v.ctx.CiphertextWireBytes(len(encV)))
	}
	for p := 1; p < len(v.parts); p++ {
		part, ws := v.parts[p], &v.weighted[p]
		dim := part.NumFeatures
		sums := ws.reset(units * dim)
		for i := lo; i < hi; i++ {
			fv := part.Examples[i].Features
			for k, j := range fv.Idx {
				for u := range units {
					if err := sums[u*dim+int(j)].add((i-lo)*units+u, fv.Val[k]); err != nil {
						return fmt.Errorf("models: party %d gradient: %w", p, err)
					}
				}
			}
		}
		route := fl.ReturnRoute{Party: hostName(p), Decryptor: arbiterName, Kind: sumKind, ReplyKind: replyKind}
		totals, err := ws.open(v.ctx, route, encV, s)
		if err != nil {
			return fmt.Errorf("models: party %d gradient: %w", p, err)
		}
		v.track(func() { step(p, totals) })
	}
	fl.ReleaseCiphertexts(encV)
	return nil
}
