package models

import (
	"fmt"
	"math"
	"math/bits"

	"flbooster/internal/fl"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
)

// signSplit gathers the terms of one homomorphic weighted sum Σᵢ E(dᵢ)^x̃ᵢ,
// split by the sign of the feature value so every exponent stays in the
// unsigned domain: side 0 takes the positive features, side 1 the negative.
type signSplit [2]struct {
	// terms pair an offset into the per-sample ciphertexts with the
	// fixed-point |x| it is weighted by.
	terms []mpint.Term
	// sum is Σx̃, exact: the party's shift-correction term and, through
	// fl.SumBound, the proof that the encrypted sum fits its return slot.
	sum uint64
}

// add records feature value x, in fixed point at the given scale, against the
// per-sample ciphertext at offset at. Values that round to zero contribute
// nothing and are skipped.
func (s *signSplit) add(at int, x, scale float64) error {
	fp := uint64(math.Abs(x)*scale + 0.5)
	if fp == 0 {
		return nil
	}
	side := &s[0]
	if !(x > 0) {
		side = &s[1]
	}
	sum, carry := bits.Add64(side.sum, fp, 0)
	if carry != 0 {
		return fmt.Errorf("%w: fixed-point feature weights total more than 64 bits", fl.ErrSumBound)
	}
	side.terms = append(side.terms, mpint.Term{Index: at, Weight: fp})
	side.sum = sum
	return nil
}

// openWeightedSums is the host side of the vertical gradient step (Hetero LR
// steps 4–5, Hetero NN per hidden unit): the homomorphic multiply-accumulate
// over the encrypted per-sample values encD for every non-empty side of every
// split — all of them in one fl.Context.WeightedSums batch — the return path
// through the key holder, and the decode Σ dᵢ·x̃ᵢ = (2α/M)·S − α·Σx̃ per side.
// It returns each split's signed total in fixed-point units, or nil when no
// split had a term to send.
func openWeightedSums(ctx *fl.Context, route fl.ReturnRoute, encD []paillier.Ciphertext, splits []signSplit) ([]float64, error) {
	type pending struct {
		split int
		neg   bool
		corr  float64
	}
	var (
		sums   [][]mpint.Term
		bounds []uint64
		meta   []pending
	)
	for k := range splits {
		for sign := range splits[k] {
			side := &splits[k][sign]
			if len(side.terms) == 0 {
				continue
			}
			bound, err := ctx.SumBound(side.sum)
			if err != nil {
				return nil, err
			}
			sums = append(sums, side.terms)
			bounds = append(bounds, bound)
			meta = append(meta, pending{split: k, neg: sign == 1, corr: float64(side.sum)})
		}
	}
	if len(sums) == 0 {
		return nil, nil
	}
	cts, err := ctx.WeightedSums(encD, sums)
	if err != nil {
		return nil, err
	}
	raws, err := ctx.OpenSums(route, cts, bounds)
	if err != nil {
		return nil, err
	}
	alpha := ctx.Quant.Alpha()
	mq := float64(uint64(1)<<ctx.Quant.RBits() - 1)
	out := make([]float64, len(splits))
	for k, raw := range raws {
		v := (2*alpha/mq)*float64(raw) - alpha*meta[k].corr
		if meta[k].neg {
			v = -v
		}
		out[meta[k].split] += v
	}
	return out, nil
}
