package stats

import (
	"fmt"
	"math"
)

// LineFit is the result of a least-squares straight-line fit y = a + b*x.
type LineFit struct {
	Slope     float64 // b
	Intercept float64 // a
	R2        float64 // coefficient of determination
	N         int     // points used
}

// Eval returns the fitted value a + b*x.
func (f LineFit) Eval(x float64) float64 { return f.Intercept + f.Slope*x }

// FitLine computes the ordinary least-squares line through (x[i], y[i]).
// At least two distinct x values are required.
func FitLine(x, y []float64) (LineFit, error) {
	w := make([]float64, len(x))
	for i := range w {
		w[i] = 1
	}
	return FitLineWeighted(x, y, w)
}

// FitLineWeighted computes the weighted least-squares line minimizing
// sum w[i]*(y[i] - a - b*x[i])^2. Weights must be nonnegative and not all
// zero.
func FitLineWeighted(x, y, w []float64) (LineFit, error) {
	if len(x) != len(y) || len(x) != len(w) {
		return LineFit{}, fmt.Errorf("stats: FitLineWeighted length mismatch (%d, %d, %d)", len(x), len(y), len(w))
	}
	if len(x) < 2 {
		return LineFit{}, fmt.Errorf("stats: need at least 2 points, got %d", len(x))
	}
	var sw, swx, swy float64
	for i := range x {
		if w[i] < 0 || math.IsNaN(w[i]) {
			return LineFit{}, fmt.Errorf("stats: invalid weight %g at index %d", w[i], i)
		}
		sw += w[i]
		swx += w[i] * x[i]
		swy += w[i] * y[i]
	}
	if sw == 0 {
		return LineFit{}, fmt.Errorf("stats: all weights are zero")
	}
	mx, my := swx/sw, swy/sw
	var sxx, sxy float64
	for i := range x {
		dx := x[i] - mx
		sxx += w[i] * dx * dx
		sxy += w[i] * dx * (y[i] - my)
	}
	if sxx == 0 {
		return LineFit{}, fmt.Errorf("stats: x values are all identical")
	}
	b := sxy / sxx
	a := my - b*mx
	// Weighted R^2.
	var ssRes, ssTot float64
	for i := range x {
		r := y[i] - (a + b*x[i])
		d := y[i] - my
		ssRes += w[i] * r * r
		ssTot += w[i] * d * d
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LineFit{Slope: b, Intercept: a, R2: r2, N: len(x)}, nil
}
