package models

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"flbooster/internal/fl"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
	"flbooster/internal/quant"
)

// signedSum gathers the terms of one homomorphic weighted sum
// Σᵢ E(dᵢ)^(σᵢx̃ᵢ): every exponent is the fixed-point |x| of a feature value
// and its term carries the value's sign, so the key holder opens one signed
// sum a feature (a hidden unit's feature, for Hetero NN).
type signedSum struct {
	// terms pair an offset into the broadcast's values with the fixed-point
	// |x| it is weighted by and the sign of x.
	terms []mpint.Term
	// neg and pos are Σx̃ over the negative and the positive terms, exact: the
	// party's shift correction and, through fl.SumBound, the proof that the
	// encrypted sum fits its return slot.
	neg, pos uint64
}

// add records feature value x, in fixed point (fixedPoint), against the
// broadcast value at offset at. Values that round to zero contribute nothing
// and are skipped.
func (s *signedSum) add(at int, x float64) error {
	fp := uint64(math.Abs(x)*fixedPoint + 0.5)
	if fp == 0 {
		return nil
	}
	neg := !(x > 0)
	side := &s.pos
	if neg {
		side = &s.neg
	}
	sum, carry := bits.Add64(*side, fp, 0)
	if carry != 0 {
		return fmt.Errorf("%w: fixed-point feature weights total more than 64 bits", fl.ErrSumBound)
	}
	s.terms = append(s.terms, mpint.Term{Index: at, Weight: fp, Neg: neg})
	*side = sum
	return nil
}

// weightedSums is one host's side of the vertical gradient step
// (vertical.hostSteps: Hetero LR's steps 4–5, Hetero NN's per hidden unit),
// kept by the skeleton across minibatches: the sums a minibatch's terms are
// gathered in and the batch they are opened as are emptied and refilled,
// their backing arrays reused, a minibatch at a time.
type weightedSums struct {
	sums   []signedSum
	batch  [][]mpint.Term
	bounds []fl.Bound
	sent   []int // the sum each opened value belongs to
	out    []float64
}

// reset empties the step for a minibatch of n sums and returns them.
func (w *weightedSums) reset(n int) []signedSum {
	w.sums = slices.Grow(w.sums[:0], n)[:n]
	for i := range w.sums {
		w.sums[i] = signedSum{terms: w.sums[i].terms[:0]}
	}
	return w.sums
}

// open is host's side of the step over the sums reset handed out: the
// homomorphic multiply-accumulate over the per-sample values the stride-s
// broadcast encD carries for every sum with a term — all of them in one
// fl.Party.BroadcastSums batch — the return path through the key holder,
// which opens S + O, and the decode of each as one signed integer,
// Σ dᵢ·σᵢx̃ᵢ = (2α/M)·S − α·(Σx̃⁺ − Σx̃⁻): one rounding. It returns each sum's
// signed total in fixed-point units, valid until the next reset: zero for a
// sum with no term, all zeros with no HE op and no message when no sum has
// one. The sum ciphertexts die here and go back to the pool.
func (w *weightedSums) open(ctx *fl.Context, host *fl.Party, route fl.ReturnRoute, encD []paillier.Ciphertext, s int) ([]float64, error) {
	w.batch, w.bounds, w.sent = w.batch[:0], w.bounds[:0], w.sent[:0]
	for k := range w.sums {
		sum := &w.sums[k]
		if len(sum.terms) == 0 {
			continue
		}
		bound, err := ctx.SumBound(sum.neg, sum.pos)
		if err != nil {
			return nil, err
		}
		w.batch = append(w.batch, sum.terms)
		w.bounds = append(w.bounds, bound)
		w.sent = append(w.sent, k)
	}
	w.out = slices.Grow(w.out[:0], len(w.sums))[:len(w.sums)]
	clear(w.out)
	if len(w.batch) == 0 {
		return w.out, nil
	}
	cts, err := host.BroadcastSums(encD, w.batch, s, true)
	if err != nil {
		return nil, err
	}
	raws, err := host.OpenBroadcastSums(route, cts, w.bounds, s)
	paillier.ReleaseBatch(cts) // OpenBroadcastSums framed a copy and kept none
	if err != nil {
		return nil, err
	}
	c := ctx.Quant.Step()
	for i, raw := range raws {
		sum := &w.sums[w.sent[i]]
		// Each side is below 2⁶³ (SumBound), so S = raw − O is exact in int64.
		w.out[w.sent[i]] = c*float64(int64(raw-fl.ReturnOffset)) - quant.Alpha*float64(int64(sum.pos)-int64(sum.neg))
	}
	return w.out, nil
}
