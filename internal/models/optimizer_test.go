package models

import "testing"

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(x) = (x−3)², starting far away; Adam must close the gap.
	opt := NewAdam(0.1)
	x := []float64{-5}
	for i := 0; i < 2000; i++ {
		g := []float64{2 * (x[0] - 3)}
		opt.Step(x, g)
	}
	if d := x[0] - 3; d > 0.05 || d < -0.05 {
		t.Fatalf("Adam converged to %v, want 3", x[0])
	}
}

func TestAdamBiasCorrectionFirstStep(t *testing.T) {
	// With bias correction, the very first step has magnitude ≈ lr
	// regardless of gradient scale.
	for _, scale := range []float64{1e-4, 1, 1e4} {
		opt := NewAdam(0.01)
		x := []float64{0}
		opt.Step(x, []float64{scale})
		if x[0] > -0.009 || x[0] < -0.011 {
			t.Fatalf("first Adam step at gradient scale %v moved %v, want ≈ -0.01", scale, x[0])
		}
	}
}

func TestAdamReinitializesOnDimensionChange(t *testing.T) {
	opt := NewAdam(0.1)
	opt.Step([]float64{0}, []float64{1})
	// A different parameter length must not panic or reuse stale moments.
	params := []float64{0, 0, 0}
	opt.Step(params, []float64{1, 1, 1})
	for i, v := range params {
		if v >= 0 {
			t.Fatalf("param %d did not move: %v", i, v)
		}
	}
}

func TestSqrtF(t *testing.T) {
	for _, x := range []float64{0, 1e-12, 0.25, 1, 2, 1e6} {
		got := sqrtF(x)
		if d := got*got - x; d > 1e-9*(x+1) || d < -1e-9*(x+1) {
			t.Fatalf("sqrtF(%v) = %v", x, got)
		}
	}
}
