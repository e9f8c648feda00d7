package models

import (
	"fmt"
	"math"

	"flbooster/internal/datasets"
	"flbooster/internal/fl"
	"flbooster/internal/flnet"
)

// Party names for the vertical topology: the guest is party0, the hosts
// party1 … partyN−1, and the arbiter holds the Paillier key.
const arbiterName = "arbiter"

func hostName(p int) string { return fmt.Sprintf("party%d", p) }

// vertical is the skeleton the three Hetero models share: the options, the
// feature slices of a vertical partition (party 0, the guest, holds the
// labels), and in encrypted mode the context and the transport every message
// between the parties and the arbiter crosses as a frame. With a nil context
// it is the plaintext oracle's skeleton: the same partition, no wire, and
// secureSum a plaintext sum.
type vertical struct {
	opts  Options
	ctx   *fl.Context // nil in plaintext-oracle mode
	parts []*datasets.Dataset
	full  *datasets.Dataset
	// net has one endpoint a party, names[p], and the arbiter's; nil in
	// oracle mode.
	net   flnet.Transport
	names []string
	// weighted is each host's homomorphic gradient step (hostSteps), kept
	// across minibatches; the guest's, p = 0, is unused. words is the
	// plaintext reply secureSum's arbiter frames.
	weighted []weightedSums
	words    []uint64
}

// fixedPoint is F, the fixed-point scale of the feature values that weigh a
// host's gradient sums: x̃ = round(|x|·F). A float, so that 1/fixedPoint is
// not the integer 0.
const fixedPoint = 128.0

// newVertical checks opts and partitions ds across the context's parties —
// opts.Parties in oracle mode — for the named model, and in encrypted mode
// opens the transport between them and the arbiter.
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
	v := vertical{opts: opts, ctx: ctx, parts: parts, full: ds, weighted: make([]weightedSums, len(parts))}
	if ctx != nil {
		for p := range parts {
			v.names = append(v.names, hostName(p))
		}
		v.net = flnet.NewSimTransport(ctx.Link, append(v.names, arbiterName)...)
	}
	return v, nil
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

// Close closes the transport; in oracle mode there is none.
func (v *vertical) Close() error {
	if v.net == nil {
		return nil
	}
	return v.net.Close()
}

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
// the hosts send theirs to the guest (kind), the guest folds the batches it
// decoded homomorphically, party 0 first, through an unbounded aggregation
// tree (Context.NewAggTree(0), the flat left fold every round folds through),
// and forwards the aggregate to the arbiter (aggKind), and the arbiter
// decrypts what it decoded and returns the plaintext sum (replyKind, a
// float's bits a value), which comes back multiplied by scale. Each batch
// dies once framed, or once the tree has it, each running sum at the next
// fold, the aggregate once decrypted. In oracle mode it is the exact sum,
// unscaled.
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
			got, err := v.ctx.SendCiphertexts(v.net, v.names[p], v.names[0], kind, cts)
			fl.ReleaseCiphertexts(cts)
			if err != nil {
				return nil, err
			}
			cts = got
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
	got, err := v.ctx.SendCiphertexts(v.net, v.names[0], arbiterName, aggKind, agg)
	fl.ReleaseCiphertexts(agg)
	if err != nil {
		return nil, err
	}
	sum, err := v.ctx.DecryptAggregated(got, len(vecs[0]), len(vecs))
	if err != nil {
		return nil, err
	}
	fl.ReleaseCiphertexts(got)
	v.words = v.words[:0]
	for _, x := range sum {
		v.words = append(v.words, math.Float64bits(x))
	}
	if v.words, err = v.ctx.SendValues(v.net, arbiterName, v.names[0], replyKind, v.words); err != nil {
		return nil, err
	}
	for i, w := range v.words { // the guest's copy, into the arbiter's dead slice
		sum[i] = math.Float64frombits(w) * scale
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
// arbiter (sumKind, replyKind; weightedSums.open), each host over its own
// decoded copy of the broadcast. step gets each host's
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
		hostV, err := v.ctx.SendCiphertexts(v.net, v.names[0], v.names[p], kind, encV)
		if err != nil {
			return err
		}
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
		route := fl.ReturnRoute{Net: v.net, Party: v.names[p], Decryptor: arbiterName, Kind: sumKind, ReplyKind: replyKind}
		totals, err := ws.open(v.ctx, route, hostV, s)
		fl.ReleaseCiphertexts(hostV)
		if err != nil {
			return fmt.Errorf("models: party %d gradient: %w", p, err)
		}
		v.track(func() { step(p, totals) })
	}
	fl.ReleaseCiphertexts(encV)
	return nil
}
