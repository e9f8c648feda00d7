package models

import (
	"math"

	"flbooster/internal/datasets"
)

// Adam implements Kingma & Ba's optimizer with bias correction: the paper's
// experiments train every model with it (§VI-B, "Adam optimizer is used to
// train the models").
type Adam struct {
	// LR is the base step size.
	LR float64
	// Beta1 and Beta2 are the moment decay rates (defaults 0.9 / 0.999).
	Beta1, Beta2 float64
	// Eps stabilizes the denominator (default 1e-8).
	Eps float64

	m, v []float64
	t    int
}

// NewAdam returns an Adam optimizer with the standard hyperparameters.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step updates params in place from grads (same length).
func (a *Adam) Step(params, grads []float64) {
	if len(a.m) != len(params) {
		a.m = make([]float64, len(params))
		a.v = make([]float64, len(params))
		a.t = 0
	}
	a.t++
	// Bias-corrected step size: lr·√(1−β₂ᵗ)/(1−β₁ᵗ).
	c1 := 1 - powInt(a.Beta1, a.t)
	c2 := 1 - powInt(a.Beta2, a.t)
	step := a.LR * sqrtF(c2) / c1
	for i := range params {
		g := grads[i]
		a.m[i] = a.Beta1*a.m[i] + (1-a.Beta1)*g
		a.v[i] = a.Beta2*a.v[i] + (1-a.Beta2)*g*g
		params[i] -= step * a.m[i] / (sqrtF(a.v[i]) + a.Eps)
	}
}

// powInt computes bᵗ for small positive t.
func powInt(b float64, t int) float64 {
	r := 1.0
	for ; t > 0; t-- {
		r *= b
	}
	return r
}

// sqrtF is √x via the dependency-free Newton helper; +Inf (a squared
// gradient that overflowed) is its own root, where Newton's x/g is Inf/Inf.
func sqrtF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if math.IsInf(x, 1) {
		return x
	}
	// Seed from Exp/Log keeps convergence fast across magnitudes.
	g := datasets.Exp(0.5 * datasets.Log(x))
	for i := 0; i < 4; i++ {
		g = 0.5 * (g + x/g)
	}
	return g
}
