package experiments

import (
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
	slope, intercept, r2, err := linearFit(xs, ys)
	if err != nil {
		t.Fatalf("linearFit: %v", err)
	}
	if !almostEqual(slope, 3, 1e-12) {
		t.Errorf("slope = %g, want 3", slope)
	}
	if !almostEqual(intercept, -7, 1e-12) {
		t.Errorf("intercept = %g, want -7", intercept)
	}
	if !almostEqual(r2, 1, 1e-12) {
		t.Errorf("r2 = %g, want 1", r2)
	}
}

func TestLinearFitConstantY(t *testing.T) {
	slope, intercept, r2, err := linearFit([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatalf("linearFit: %v", err)
	}
	if slope != 0 || intercept != 5 || r2 != 1 {
		t.Errorf("fit = (%g, %g, %g), want slope 0 intercept 5 r2 1", slope, intercept, r2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		xs, ys []float64
	}{
		{"single point", []float64{1}, []float64{1}},
		{"mismatched", []float64{1, 2}, []float64{1}},
		{"constant x", []float64{2, 2, 2}, []float64{1, 2, 3}},
	} {
		if _, _, _, err := linearFit(tc.xs, tc.ys); err == nil {
			t.Errorf("%s: err = nil, want an error", tc.name)
		}
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
	slope, _, r2, err := linearFit(xs, ys)
	if err != nil {
		t.Fatalf("linearFit: %v", err)
	}
	if !almostEqual(slope, 2, 0.01) {
		t.Errorf("slope = %g, want ~2", slope)
	}
	if r2 < 0.999 {
		t.Errorf("r2 = %g, want > 0.999", r2)
	}
}
