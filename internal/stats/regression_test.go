package stats

import (
	"testing"
	"testing/quick"
)

func TestFitLineExact(t *testing.T) {
	// Points exactly on y = 3 - 2x.
	x := []float64{0, 1, 2, 3, 4}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 3 - 2*x[i]
	}
	fit, err := FitLine(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, -2, 1e-12) || !almostEqual(fit.Intercept, 3, 1e-12) {
		t.Errorf("fit = %+v, want slope -2 intercept 3", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %g, want 1", fit.R2)
	}
	if fit.Eval(10) != -17 {
		t.Errorf("Eval(10) = %g, want -17", fit.Eval(10))
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{2}); err == nil {
		t.Error("expected error for single point")
	}
	if _, err := FitLine([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("expected error for constant x")
	}
	if _, err := FitLineWeighted([]float64{1, 2}, []float64{1, 2}, []float64{1}); err == nil {
		t.Error("expected error for weight length mismatch")
	}
	if _, err := FitLineWeighted([]float64{1, 2}, []float64{1, 2}, []float64{0, 0}); err == nil {
		t.Error("expected error for all-zero weights")
	}
	if _, err := FitLineWeighted([]float64{1, 2}, []float64{1, 2}, []float64{-1, 1}); err == nil {
		t.Error("expected error for negative weight")
	}
}

func TestFitLineRecoversNoisyLine(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := newRand(seed)
		slope := rng.NormFloat64() * 3
		intercept := rng.NormFloat64() * 5
		n := 200
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i) / 10
			y[i] = intercept + slope*x[i] + rng.NormFloat64()*0.01
		}
		fit, err := FitLine(x, y)
		if err != nil {
			return false
		}
		return almostEqual(fit.Slope, slope, 0.01) && almostEqual(fit.Intercept, intercept, 0.05)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestFitLineWeightedIgnoresZeroWeightOutliers(t *testing.T) {
	x := []float64{0, 1, 2, 3, 100}
	y := []float64{0, 1, 2, 3, -500} // outlier at the end
	w := []float64{1, 1, 1, 1, 0}
	fit, err := FitLineWeighted(x, y, w)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 1, 1e-12) || !almostEqual(fit.Intercept, 0, 1e-12) {
		t.Errorf("weighted fit = %+v, want y = x", fit)
	}
}
