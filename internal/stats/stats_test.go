package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestLinearFitExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x - 7
	}
	fit, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatalf("LinearFit: %v", err)
	}
	if !almostEqual(fit.Slope, 3, 1e-12) {
		t.Errorf("Slope = %g, want 3", fit.Slope)
	}
	if !almostEqual(fit.Intercept, -7, 1e-12) {
		t.Errorf("Intercept = %g, want -7", fit.Intercept)
	}
	if !almostEqual(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %g, want 1", fit.R2)
	}
}

func TestLinearFitConstantY(t *testing.T) {
	fit, err := LinearFit([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatalf("LinearFit: %v", err)
	}
	if fit.Slope != 0 || fit.Intercept != 5 || fit.R2 != 1 {
		t.Errorf("fit = %+v, want slope 0 intercept 5 r2 1", fit)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); !errors.Is(err, ErrNoData) {
		t.Errorf("single point: err = %v, want ErrNoData", err)
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); !errors.Is(err, ErrMismatchedLen) {
		t.Errorf("mismatched: err = %v, want ErrMismatchedLen", err)
	}
	if _, err := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); !errors.Is(err, ErrNoData) {
		t.Errorf("constant x: err = %v, want ErrNoData", err)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 2*x+1+rng.NormFloat64()*0.5)
	}
	fit, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatalf("LinearFit: %v", err)
	}
	if !almostEqual(fit.Slope, 2, 0.01) {
		t.Errorf("Slope = %g, want ~2", fit.Slope)
	}
	if fit.R2 < 0.999 {
		t.Errorf("R2 = %g, want > 0.999", fit.R2)
	}
}
