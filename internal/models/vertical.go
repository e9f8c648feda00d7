package models

import (
	"fmt"
	"math"
	"slices"

	"flbooster/internal/datasets"
	"flbooster/internal/fl"
	"flbooster/internal/flnet"
	"flbooster/internal/paillier"
	"flbooster/internal/quant"
)

// Party names for the vertical topology: the guest is party0, the hosts
// party1 … partyN−1, and the arbiter, Hetero LR's and NN's key holder.
const arbiterName = "arbiter"

func hostName(p int) string { return fmt.Sprintf("party%d", p) }

// vertical is the skeleton the three Hetero models share: the options, the
// feature slices of a vertical partition (party 0, the guest, holds the
// labels), the minibatch ranges of every epoch, and in encrypted mode the
// context and the transport every message between the parties and the arbiter
// crosses as a frame. With a nil context it is the plaintext oracle's
// skeleton: the same partition, no wire, and secureSum a plaintext sum. It
// and the models on it keep their minibatch vectors as scratch that lives as
// long as the model, filled in place (zeroed), so a warm epoch's float
// vectors allocate nothing, oracle or encrypted.
type vertical struct {
	opts    Options
	ctx     *fl.Context // nil in plaintext-oracle mode
	parts   []*datasets.Dataset
	full    *datasets.Dataset
	batches [][2]int // full's minibatch ranges [lo, hi), computed once
	// net has one endpoint a party and the arbiter's; nil in oracle mode.
	net flnet.Transport
	// parties[p] is party p, the guest at 0; holder decrypts: the arbiter
	// for Hetero LR and NN, the guest (parties[0]'s Holder) for SBT. Both nil
	// in oracle mode.
	parties []*fl.Party
	holder  *fl.Holder
	// weighted is each host's homomorphic gradient step (hostSteps), kept
	// across minibatches; the guest's, p = 0, is unused. sum is secureSum's
	// score buffer and the oracle's sum (sumVecs). The lifetime rule of all
	// such scratch: a slice that secureSum, hostSteps or a model helper
	// returns is valid until the next minibatch, as weightedSums.open's is
	// until the next reset.
	weighted []weightedSums
	sum      []float64
}

// zeroed returns *buf resized to n zeros, its backing array reused once it
// has grown to the largest n asked for: the minibatch scratch of vertical and
// the models on it.
func zeroed(buf *[]float64, n int) []float64 {
	*buf = slices.Grow((*buf)[:0], n)[:n]
	clear(*buf)
	return *buf
}

// fixedPoint is F, the fixed-point scale of the feature values that weigh a
// host's gradient sums: x̃ = round(|x|·F). A float, so that 1/fixedPoint is
// not the integer 0.
const fixedPoint = 128.0

// newVertical checks opts and partitions ds across the context's parties —
// opts.Parties in oracle mode — for the named model, and in encrypted mode
// builds them, the key holder — the party named holder, the guest or the
// arbiter — and the transport between them and the arbiter.
func newVertical(ctx *fl.Context, ds *datasets.Dataset, opts Options, model, holder string) (vertical, error) {
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
	v := vertical{opts: opts, ctx: ctx, parts: parts, full: ds, batches: ds.Batches(opts.BatchSize), weighted: make([]weightedSums, len(parts))}
	if ctx != nil {
		names := []string{arbiterName}
		v.holder = ctx.NewHolder(holder)
		for p := range parts {
			party := ctx.NewParty(hostName(p))
			if party.Name == holder {
				party = &v.holder.Party
			}
			v.parties, names = append(v.parties, party), append(names, party.Name)
		}
		v.net = flnet.NewSimTransport(ctx.Link, names...)
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
// first, into v.sum.
func (v *vertical) sumVecs(vecs [][]float64) []float64 {
	sum := zeroed(&v.sum, len(vecs[0]))
	for _, vec := range vecs {
		for i, x := range vec {
			sum[i] += x
		}
	}
	return sum
}

// secureSum is the aggregatable flow (Hetero LR's partial scores, Hetero NN's
// interactive layer) over every party's vector, divided by scale and
// quantized, which clamps it into the quantizer's interval. Each host
// encrypts its own — packed under batch compression — and sends it to the
// arbiter (kind), which folds the batches it decoded homomorphically through
// an unbounded aggregation tree (Context.NewAggTree(0), the flat left fold
// every round folds through), decrypts the fold to its raw slot sums
// (DecryptSlotSums, no dequantisation) and returns them to the guest
// (replyKind, 8 B a value).
// The arbiter opens no party's vector alone: with one host the guest's batch
// goes to it too, folded first, and the reply is every party's sum; with two
// or more the guest encrypts nothing and adds its own quantized value to the
// hosts' sums. The guest rejects a sum above the most the folded parties
// reach, k·(2^r−1), which would wrap the add (quant.ErrOverflow), and
// dequantizes the total of all P parties — the integer a fold of every
// party's batch opens to — which comes back multiplied by scale. Without a
// host nothing crosses the wire. Each batch dies once framed, or once the
// tree has it, each running sum at the next fold, the fold once decrypted.
// In oracle mode it is the exact sum, unscaled.
func (v *vertical) secureSum(vecs [][]float64, scale float64, kind, replyKind string) ([]float64, error) {
	if v.ctx == nil {
		return v.sumVecs(vecs), nil
	}
	q, parties := v.ctx.Quant, len(vecs)
	// norm is one party's vector at a time, normalized, and then the sum.
	norm := zeroed(&v.sum, len(vecs[0]))
	normalize := func(vec []float64) {
		for i, x := range vec {
			norm[i] = x / scale
		}
	}
	first := 1 // the first party the arbiter folds: the guest beside a lone host
	if parties == 2 {
		first = 0
	}
	var sums []uint64 // the arbiter's reply, as the guest decoded it; nil without a host
	if parties > 1 {
		tree, err := v.ctx.NewAggTree(0)
		if err != nil {
			return nil, err
		}
		for p := first; p < parties; p++ {
			normalize(vecs[p])
			cts, err := v.parties[p].EncryptGradients(norm)
			if err != nil {
				return nil, fmt.Errorf("models: party %d %s encrypt: %w", p, kind, err)
			}
			got, err := v.parties[p].SendCiphertexts(v.net, v.holder.Name, kind, cts)
			paillier.ReleaseBatch(cts)
			if err != nil {
				return nil, err
			}
			err = tree.Add(got)
			paillier.ReleaseBatch(got) // the tree copied or summed it
			if err != nil {
				return nil, err
			}
		}
		agg, err := tree.Root()
		if err != nil {
			return nil, err
		}
		raw, err := v.holder.DecryptSlotSums(agg, len(norm))
		paillier.ReleaseBatch(agg)
		if err != nil {
			return nil, err
		}
		if sums, err = v.holder.SendValues(v.net, v.parties[0].Name, replyKind, raw); err != nil {
			return nil, err
		}
	}
	normalize(vecs[0])
	if i := slices.IndexFunc(norm, math.IsNaN); i >= 0 {
		return nil, fmt.Errorf("models: party 0 %s value %d: %w", kind, i, quant.ErrNaN)
	}
	most := uint64(parties-first) * q.MaxQ()
	for i := range norm {
		var sum uint64
		if sums != nil {
			if sum = sums[i]; sum > most {
				return nil, fmt.Errorf("models: %s value %d is %d, above the folded parties' most %d: %w", replyKind, i, sum, most, quant.ErrOverflow)
			}
		}
		if first == 1 {
			sum += q.Quantize(norm[i])
		}
		total, err := q.DequantizeSum(sum, parties)
		if err != nil {
			return nil, err
		}
		norm[i] = total * scale
	}
	return norm, nil
}

// hostSteps is the homomorphic gradient step Hetero LR and Hetero NN share,
// over rows [lo, hi). vals are the guest's values, units a row, row after row
// (Hetero LR's residuals, one a row; Hetero NN's hidden deltas, Hidden a
// row); EncryptBroadcast quantizes them, clamping past ±α. The guest encrypts
// them s a ciphertext — s the stride fl.Context.BroadcastStride picks from the
// value count and each host's units × features sums — and sends them to every
// host (kind). Each host weighs them into one signed sum a (unit, feature),
// Σᵢ E(v_{iu})^(σᵢⱼx̃ᵢⱼ) laid out unit by unit, and opens the sums through the
// arbiter (sumKind, replyKind; weightedSums.open), each host over its own
// decoded copy of the broadcast. step gets each host's
// totals in fixed-point units, zero where a sum had no term, and is timed as
// model computation. With no host there is no step: nothing is encrypted.
func (v *vertical) hostSteps(vals []float64, units, lo, hi int, kind, sumKind, replyKind string, step func(p int, totals []float64)) error {
	if len(v.parts) == 1 {
		return nil
	}
	// A constant capacity keeps the counts off the heap for up to 8 hosts.
	counts := make([]int, 0, 8)
	for _, part := range v.parts[1:] {
		counts = append(counts, units*part.NumFeatures)
	}
	s := v.ctx.BroadcastStride(len(vals), counts)
	encV, err := v.parties[0].EncryptBroadcast(vals, s)
	if err != nil {
		return err
	}
	for p := 1; p < len(v.parts); p++ {
		hostV, err := v.parties[0].SendCiphertexts(v.net, v.parties[p].Name, kind, encV)
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
		route := fl.ReturnRoute{Net: v.net, Decryptor: v.holder, Kind: sumKind, ReplyKind: replyKind}
		totals, err := ws.open(v.ctx, v.parties[p], route, hostV, s)
		paillier.ReleaseBatch(hostV)
		if err != nil {
			return fmt.Errorf("models: party %d gradient: %w", p, err)
		}
		v.track(func() { step(p, totals) })
	}
	paillier.ReleaseBatch(encV)
	return nil
}
