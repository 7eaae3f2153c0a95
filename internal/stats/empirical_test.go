package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestCCDFKnown(t *testing.T) {
	values, prob, err := CCDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	wantV := []float64{1, 2}
	wantP := []float64{0.75, 0.25}
	if len(values) != len(wantV) {
		t.Fatalf("values = %v, want %v", values, wantV)
	}
	for i := range wantV {
		if values[i] != wantV[i] || !almostEqual(prob[i], wantP[i], 1e-12) {
			t.Errorf("point %d = (%g, %g), want (%g, %g)", i, values[i], prob[i], wantV[i], wantP[i])
		}
	}
}

func TestCCDFErrors(t *testing.T) {
	if _, _, err := CCDF(nil); err == nil {
		t.Error("expected error for empty sample")
	}
	if _, _, err := CCDF([]float64{5, 5, 5}); err == nil {
		t.Error("expected error for degenerate sample")
	}
}

func TestCCDFProperties(t *testing.T) {
	prop := func(seed uint64, szRaw uint8) bool {
		n := int(szRaw%200) + 10
		rng := newRand(seed)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.ExpFloat64()
		}
		values, prob, err := CCDF(x)
		if err != nil {
			return false
		}
		// Values strictly increasing, probabilities strictly decreasing in (0,1).
		if !sort.Float64sAreSorted(values) {
			return false
		}
		for i := range prob {
			if prob[i] <= 0 || prob[i] >= 1 {
				return false
			}
			if i > 0 && prob[i] >= prob[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestECDF(t *testing.T) {
	f, err := ECDF([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := f(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("ECDF(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	if _, err := ECDF(nil); err == nil {
		t.Error("expected error for empty sample")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Counts) != 5 || len(h.Edges) != 6 {
		t.Fatalf("histogram shape %d/%d, want 5/6", len(h.Counts), len(h.Edges))
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != h.N || total != 11 {
		t.Errorf("histogram total = %d, want 11", total)
	}
	// Max value goes to the last bin.
	if h.Counts[4] != 3 { // 8, 9, 10
		t.Errorf("last bin = %d, want 3", h.Counts[4])
	}
	if _, err := NewHistogram(nil, 3); err == nil {
		t.Error("expected error for empty sample")
	}
	if _, err := NewHistogram([]float64{1}, 0); err == nil {
		t.Error("expected error for zero bins")
	}
	// Constant sample must not divide by zero.
	if _, err := NewHistogram([]float64{2, 2, 2}, 4); err != nil {
		t.Errorf("constant sample: %v", err)
	}
}

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
