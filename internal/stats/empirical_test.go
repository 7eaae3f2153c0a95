package stats

import (
	"math"
	"testing"
)

func TestAutocovarianceWhiteNoise(t *testing.T) {
	rng := newRand(11)
	x := make([]float64, 20000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	acv, err := Autocovariance(x, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(acv[0], 1, 0.05) {
		t.Errorf("gamma(0) = %g, want ~1", acv[0])
	}
	for tau := 1; tau <= 5; tau++ {
		if math.Abs(acv[tau]) > 0.05 {
			t.Errorf("gamma(%d) = %g, want ~0", tau, acv[tau])
		}
	}
}

func TestAutocorrelationAR1(t *testing.T) {
	// AR(1) with coefficient phi has rho(tau) = phi^tau.
	phi := 0.8
	rng := newRand(12)
	x := make([]float64, 60000)
	for i := 1; i < len(x); i++ {
		x[i] = phi*x[i-1] + rng.NormFloat64()
	}
	acv, err := Autocovariance(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	for tau := 1; tau <= 4; tau++ {
		want := math.Pow(phi, float64(tau))
		if rho := acv[tau] / acv[0]; !almostEqual(rho, want, 0.05) {
			t.Errorf("rho(%d) = %g, want ~%g", tau, rho, want)
		}
	}
}

func TestAutocovarianceErrors(t *testing.T) {
	if _, err := Autocovariance(nil, 0); err == nil {
		t.Error("expected error for empty series")
	}
	if _, err := Autocovariance([]float64{1, 2}, 5); err == nil {
		t.Error("expected error for maxLag >= n")
	}
}
