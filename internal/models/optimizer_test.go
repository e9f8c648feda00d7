package models

import (
	"math"
	"testing"
	"time"

	"flbooster/internal/mpint"
)

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

// TestOverflowedSquareReturns holds the path an overflowed squared gradient
// takes through Adam to returning: mpint.Ln(+Inf) halved +Inf forever and
// sqrtF(+Inf) was Inf/Inf = NaN. Each call runs under a deadline, so a hang
// fails the test instead of stalling the suite; a gradient of 1e300 leaves
// its parameter finite.
func TestOverflowedSquareReturns(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		name string
		f    func() float64
		want float64
	}{
		{"mpint.Ln(+Inf)", func() float64 { return mpint.Ln(inf) }, inf},
		{"sqrtF(+Inf)", func() float64 { return sqrtF(inf) }, inf},
		{"Adam step at gradient 1e300", func() float64 {
			params := []float64{1}
			NewAdam(0.1).Step(params, []float64{1e300})
			return params[0]
		}, 1},
	} {
		done := make(chan float64, 1)
		go func() { done <- c.f() }()
		select {
		case got := <-done:
			if got != c.want {
				t.Errorf("%s = %v, want %v", c.name, got, c.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return within 5 s", c.name)
		}
	}
}
