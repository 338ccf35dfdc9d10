// Package stats provides the event counters the gateway, saver pool,
// cluster and DPD monitor keep, and the least-squares linear regression of
// the experiment harness.
//
// The regression is what turns the paper's §3 "unbounded growth" claims
// into measurements: the unbounded-baseline experiment fits the baseline
// protocol's replay-acceptance and discard counts against traffic volume
// and reports slope and R², so "grows linearly without bound" is a fitted
// coefficient rather than a narrative. Everything is dependency-free and
// deterministic — no internal randomness — because the experiment tables
// must reproduce bit-for-bit from a seed.
package stats

import (
	"errors"
	"fmt"
)

// ErrNoData is returned by computations that need at least one observation.
var ErrNoData = errors.New("stats: no data")

// ErrMismatchedLen is returned when paired samples have different lengths.
var ErrMismatchedLen = errors.New("stats: mismatched sample lengths")

// Fit is the result of a least-squares linear regression y = Slope*x +
// Intercept with coefficient of determination R2.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit computes the least-squares line through the paired observations.
// It returns ErrNoData for fewer than two points and ErrMismatchedLen when
// the slices differ in length. A vertical line (zero x-variance) is an error
// wrapped around ErrNoData.
func LinearFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("%w: len(xs)=%d len(ys)=%d", ErrMismatchedLen, len(xs), len(ys))
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return Fit{}, fmt.Errorf("linear fit needs >= 2 points: %w", ErrNoData)
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, fmt.Errorf("linear fit undefined for constant x: %w", ErrNoData)
	}
	slope := sxy / sxx
	fit := Fit{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		fit.R2 = 1 // constant y fit exactly by horizontal line
	} else {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit, nil
}
