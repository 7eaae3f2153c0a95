package dist

import (
	"math"
	"testing"
)

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give the same stream")
		}
	}
	if NewRand(1).Float64() == NewRand(2).Float64() {
		t.Error("different seeds should diverge immediately")
	}
}

func TestParetoValidation(t *testing.T) {
	if _, err := NewPareto(0, 1); err == nil {
		t.Error("expected error for alpha 0")
	}
	if _, err := NewPareto(1.5, 0); err == nil {
		t.Error("expected error for xm 0")
	}
	if _, err := NewPareto(1.5, 2); err != nil {
		t.Error(err)
	}
}

func TestParetoMoments(t *testing.T) {
	p := Pareto{Alpha: 1.5, Xm: 2}
	mean := p.Alpha * p.Xm / (p.Alpha - 1)
	rng := NewRand(5)
	var sum float64
	const n = 2_000_000
	for i := 0; i < n; i++ {
		sum += p.Sample(rng)
	}
	// Heavy-tailed, so the empirical mean converges slowly; 10% is enough
	// to catch an inverse-transform mistake.
	if got := sum / n; math.Abs(got-mean)/mean > 0.1 {
		t.Errorf("empirical mean %g vs %g", got, mean)
	}
}

func TestParetoQuantileAndCCDF(t *testing.T) {
	p := Pareto{Alpha: 2, Xm: 3}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99} {
		x := p.Quantile(q)
		if x < p.Xm {
			t.Errorf("Quantile(%g) = %g below xm", q, x)
		}
		// Pr(X > x) = (xm/x)^alpha above xm.
		if got := math.Pow(p.Xm/x, p.Alpha); math.Abs(got-(1-q)) > 1e-12 {
			t.Errorf("CCDF(Quantile(%g)) = %g, want %g", q, got, 1-q)
		}
	}
}

func TestParetoSamplesAreBounded(t *testing.T) {
	p := Pareto{Alpha: 1.2, Xm: 1}
	rng := NewRand(9)
	for i := 0; i < 100000; i++ {
		v := p.Sample(rng)
		if v < p.Xm || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("sample %g outside [xm, inf)", v)
		}
	}
}

func TestFitParetoTailRecoversAlpha(t *testing.T) {
	rng := NewRand(11)
	for _, alpha := range []float64{1.2, 1.5, 1.9} {
		p := Pareto{Alpha: alpha, Xm: 1}
		sample := make([]float64, 50000)
		for i := range sample {
			sample[i] = p.Sample(rng)
		}
		fit, err := FitParetoTail(sample, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fit.Alpha-alpha) > 0.15 {
			t.Errorf("alpha %g: fitted %g", alpha, fit.Alpha)
		}
		if fit.Fit.R2 < 0.95 {
			t.Errorf("alpha %g: R2 %g, want a near-linear log-log CCDF", alpha, fit.Fit.R2)
		}
	}
}

func TestFitParetoTailErrors(t *testing.T) {
	ok := make([]float64, 100)
	for i := range ok {
		ok[i] = float64(i + 1)
	}
	if _, err := FitParetoTail(ok, 0); err == nil {
		t.Error("expected error for frac 0")
	}
	if _, err := FitParetoTail(ok, 1.5); err == nil {
		t.Error("expected error for frac > 1")
	}
	if _, err := FitParetoTail(ok[:5], 1); err == nil {
		t.Error("expected error for too few points")
	}
	neg := []float64{-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if _, err := FitParetoTail(neg, 1); err == nil {
		t.Error("expected error for nonpositive tail values")
	}
}
