package models

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

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

// weightedSums is one host's homomorphic gradient step (Hetero LR steps 4–5,
// Hetero NN per hidden unit), kept by its model across minibatches: the
// splits a minibatch's terms are gathered in and the batch they are opened as
// are emptied and refilled, their backing arrays reused, a minibatch at a time.
type weightedSums struct {
	splits []signSplit
	sums   [][]mpint.Term
	bounds []uint64
	meta   []pendingSum
	out    []float64
}

// pendingSum is where an opened sum goes: its split, its side, and the
// shift correction Σx̃ of that side.
type pendingSum struct {
	split int
	neg   bool
	corr  float64
}

// reset empties the step for a minibatch of n splits and returns them.
func (w *weightedSums) reset(n int) []signSplit {
	w.splits = slices.Grow(w.splits[:0], n)[:n]
	for i := range w.splits {
		for side := range w.splits[i] {
			w.splits[i][side].terms, w.splits[i][side].sum = w.splits[i][side].terms[:0], 0
		}
	}
	return w.splits
}

// open is the host side of the step over the splits reset handed out: the
// homomorphic multiply-accumulate over the per-sample values the stride-s
// broadcast encD carries for every non-empty side of every split — all of
// them in one fl.Context.BroadcastSums batch — the return path through the
// key holder, and the decode Σ dᵢ·x̃ᵢ = (2α/M)·S − α·Σx̃ per side. It returns
// each split's signed total in fixed-point units, valid until the next reset,
// or nil when no split had a term to send. The sum ciphertexts die here and
// go back to the pool.
func (w *weightedSums) open(ctx *fl.Context, route fl.ReturnRoute, encD []paillier.Ciphertext, s int) ([]float64, error) {
	w.sums, w.bounds, w.meta = w.sums[:0], w.bounds[:0], w.meta[:0]
	for k := range w.splits {
		for sign := range w.splits[k] {
			side := &w.splits[k][sign]
			if len(side.terms) == 0 {
				continue
			}
			bound, err := ctx.SumBound(side.sum)
			if err != nil {
				return nil, err
			}
			w.sums = append(w.sums, side.terms)
			w.bounds = append(w.bounds, bound)
			w.meta = append(w.meta, pendingSum{split: k, neg: sign == 1, corr: float64(side.sum)})
		}
	}
	if len(w.sums) == 0 {
		return nil, nil
	}
	cts, err := ctx.BroadcastSums(encD, w.sums, s)
	if err != nil {
		return nil, err
	}
	raws, err := ctx.OpenBroadcastSums(route, cts, w.bounds, s)
	if err != nil {
		return nil, err
	}
	fl.ReleaseCiphertexts(cts)
	alpha := ctx.Quant.Alpha()
	mq := float64(uint64(1)<<ctx.Quant.RBits() - 1)
	w.out = slices.Grow(w.out[:0], len(w.splits))[:len(w.splits)]
	clear(w.out)
	for k, raw := range raws {
		v := (2*alpha/mq)*float64(raw) - alpha*w.meta[k].corr
		if w.meta[k].neg {
			v = -v
		}
		w.out[w.meta[k].split] += v
	}
	return w.out, nil
}
