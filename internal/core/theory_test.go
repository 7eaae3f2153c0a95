package core

import (
	"math"
	"testing"
)

func TestNewBSSDesign(t *testing.T) {
	if _, err := NewBSSDesign(1); err == nil {
		t.Error("expected error for alpha = 1")
	}
	if _, err := NewBSSDesign(2.5); err == nil {
		t.Error("expected error for alpha > 2")
	}
	d, err := NewBSSDesign(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.EpsilonFloor(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("EpsilonFloor = %g, want 1/3", got)
	}
}

func TestThresholdRatioAndTrigger(t *testing.T) {
	d := BSSDesign{Alpha: 1.5}
	// eps = floor => c = 1 => a_th sits at the minimum ell.
	if c := d.ThresholdRatio(d.EpsilonFloor()); math.Abs(c-1) > 1e-12 {
		t.Errorf("c at floor = %g, want 1", c)
	}
	// eps = 1 => c = alpha/(alpha-1) = 3.
	if c := d.ThresholdRatio(1); math.Abs(c-3) > 1e-12 {
		t.Errorf("c at eps=1 = %g, want 3", c)
	}
}

func TestQualifiedFraction(t *testing.T) {
	d := BSSDesign{Alpha: 1.3}
	// The paper's Figure 18(b): L = 10, eps ~ 1, alpha = 1.3 gives
	// overhead ~ 0.2.
	got := d.QualifiedFraction(10, 1.0)
	if got < 0.15 || got > 0.3 {
		t.Errorf("overhead = %g, want ~0.2 (paper Figure 18b)", got)
	}
	// Monotonic: decreasing in eps, increasing in L.
	if d.QualifiedFraction(10, 2) >= got {
		t.Error("overhead should fall as eps rises")
	}
	if d.QualifiedFraction(20, 1.0) <= got {
		t.Error("overhead should rise with L")
	}
	// Below the floor it saturates at L.
	if v := d.QualifiedFraction(5, 0.01); v != 5 {
		t.Errorf("sub-floor overhead = %g, want L", v)
	}
}

func TestBiasRatioShape(t *testing.T) {
	d := BSSDesign{Alpha: 1.5}
	const l, eta = 5.0, 0.15
	// xi -> 0 as eps -> 0.
	if xi := d.BiasRatio(l, 1e-6, eta); xi > 0.01 {
		t.Errorf("xi near 0 expected for tiny eps, got %g", xi)
	}
	// xi = 1 exactly at the epsilon floor when eta = 0... actually at the
	// floor c = 1: xi = ((1-eta) + Lq)/(1+Lq) with q = 1, c = 1:
	// ((1-eta)+L)/(1+L) < 1 for eta > 0, = 1 for eta = 0.
	if xi := d.BiasRatio(l, d.EpsilonFloor(), 0); math.Abs(xi-1) > 1e-12 {
		t.Errorf("xi at floor with eta=0 = %g, want 1", xi)
	}
	// xi -> 1 - eta as eps -> infinity.
	if xi := d.BiasRatio(l, 1e9, eta); math.Abs(xi-(1-eta)) > 1e-6 {
		t.Errorf("xi at huge eps = %g, want %g", xi, 1-eta)
	}
	// Unimodal with a peak above 1 for moderate eta.
	_, xiMax := d.XiPeak(l, eta)
	if xiMax <= 1 {
		t.Errorf("xi peak = %g, want > 1", xiMax)
	}
	// Invalid inputs.
	if !math.IsNaN(d.BiasRatio(l, 0, eta)) || !math.IsNaN(d.BiasRatio(-1, 1, eta)) {
		t.Error("invalid inputs should give NaN")
	}
}

func TestLUnbiasedMatchesPaperEq23(t *testing.T) {
	// Eq. (23): L = eta * c^(2 alpha) / (c - 1).
	d := BSSDesign{Alpha: 1.5}
	for _, tc := range []struct{ eps, eta float64 }{
		{1.0, 0.2}, {1.5, 0.35}, {2.0, 0.1},
	} {
		c := d.ThresholdRatio(tc.eps)
		want := tc.eta * math.Pow(c, 2*d.Alpha) / (c - 1)
		got, err := d.LUnbiased(tc.eps, tc.eta)
		if err != nil {
			t.Fatalf("eps=%g eta=%g: %v", tc.eps, tc.eta, err)
		}
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("eps=%g eta=%g: L = %g, want %g", tc.eps, tc.eta, got, want)
		}
		// Consistency: plugging L back gives xi = 1.
		if xi := d.BiasRatio(got, tc.eps, tc.eta); math.Abs(xi-1) > 1e-9 {
			t.Errorf("round trip xi = %g, want 1", xi)
		}
	}
	if _, err := d.LUnbiased(1.0, -0.1); err == nil {
		t.Error("expected error for negative eta")
	}
	if _, err := d.LUnbiased(1.0, 1); err == nil {
		t.Error("expected error for eta = 1")
	}
	if _, err := d.LUnbiased(0.2, 0.2); err == nil {
		t.Error("expected error below the epsilon floor (c <= 1)")
	}
	if _, err := d.LForTarget(0, 0.2, 1); err == nil {
		t.Error("expected error for eps = 0")
	}
}

func TestPaperUnbiasedParameterPairs(t *testing.T) {
	// The paper's Figure 12 uses (L=10, eps=2.55) and (L=8, eps=2.28) for
	// synthetic traces (alpha = 1.5) and calls both "xi = 1"; under our
	// derivation both pairs solve xi = 1 for the same eta (~0.15),
	// confirming the reconstruction. Figure 13's real-trace pairs
	// (alpha = 1.71): (L=10, eps=1.809), (L=8, eps=1.68) at eta ~0.21.
	check := func(alpha float64, pairs [][2]float64, wantEta, tol float64) {
		t.Helper()
		d := BSSDesign{Alpha: alpha}
		etas := make([]float64, len(pairs))
		for i, pr := range pairs {
			l, eps := pr[0], pr[1]
			c := d.ThresholdRatio(eps)
			etas[i] = l * math.Pow(c, -2*alpha) * (c - 1) // solve Eq. 23 for eta
			if math.Abs(etas[i]-wantEta) > tol {
				t.Errorf("alpha=%g pair %v implies eta=%.3f, want ~%.2f", alpha, pr, etas[i], wantEta)
			}
		}
		if math.Abs(etas[0]-etas[1]) > 0.02 {
			t.Errorf("alpha=%g: pairs imply different eta (%.3f vs %.3f) — they should lie on one xi=1 contour", alpha, etas[0], etas[1])
		}
	}
	check(1.5, [][2]float64{{10, 2.55}, {8, 2.28}}, 0.15, 0.02)
	check(1.71, [][2]float64{{10, 1.809}, {8, 1.68}}, 0.21, 0.03)
}

func TestEpsRoots(t *testing.T) {
	d := BSSDesign{Alpha: 1.5}
	const l, eta = 5.0, 0.15
	eps1, eps2, err := d.EpsRoots(l, eta, 1)
	if err != nil {
		t.Fatal(err)
	}
	if eps1 >= eps2 {
		t.Fatalf("roots out of order: %g >= %g", eps1, eps2)
	}
	// Both roots give xi = 1.
	for _, e := range []float64{eps1, eps2} {
		if xi := d.BiasRatio(l, e, eta); math.Abs(xi-1) > 1e-6 {
			t.Errorf("xi(%g) = %g, want 1", e, xi)
		}
	}
	// The paper's observation: eps1 is near (alpha-1)/alpha and nearly
	// independent of L.
	if math.Abs(eps1-d.EpsilonFloor()) > 0.15 {
		t.Errorf("eps1 = %g, want near the floor %g", eps1, d.EpsilonFloor())
	}
	_, eps1b, _ := func() (float64, float64, error) { return d.EpsRoots(10, eta, 1) }()
	_ = eps1b
	e1L10, e2L10, err := d.EpsRoots(10, eta, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e1L10-eps1) > 0.1 {
		t.Errorf("eps1 moved too much with L: %g vs %g", e1L10, eps1)
	}
	// eps2 increases with L.
	if e2L10 <= eps2 {
		t.Errorf("eps2 should increase with L: L=5 gives %g, L=10 gives %g", eps2, e2L10)
	}
	// Unreachable target errors out.
	if _, _, err := d.EpsRoots(0.01, 0.0, 1.5); err == nil {
		t.Error("expected error for unreachable target")
	}
	if _, _, err := d.EpsRoots(0, eta, 1); err == nil {
		t.Error("expected error for L = 0")
	}
	// EpsForTarget returns the upper branch.
	got, err := d.EpsForTarget(l, eta, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-eps2) > 1e-9 {
		t.Errorf("EpsForTarget = %g, want upper root %g", got, eps2)
	}
}

func TestEtaFromRate(t *testing.T) {
	// Eq. (35): eta falls as the rate rises, power 1/alpha - 1. Note the
	// paper's quoted Cs range (0.25-0.35) is incompatible with eta <= 1 at
	// its own rates; Cs is a per-trace calibration constant (~0.01-0.05
	// for our traces, see EXPERIMENTS.md).
	const cs = 0.03
	eta3 := EtaFromRate(1e-3, 1.5, cs)
	eta2 := EtaFromRate(1e-2, 1.5, cs)
	if !(eta3 > eta2) {
		t.Errorf("eta should fall with rate: %g vs %g", eta3, eta2)
	}
	want := cs * math.Pow(1e-2, 1/1.5-1)
	if math.Abs(eta2-want) > 1e-12 {
		t.Errorf("eta(1e-2) = %g, want %g", eta2, want)
	}
	// Far below any plausible rate the law clamps at 0.99.
	if got := EtaFromRate(1e-9, 1.5, cs); got != 0.99 {
		t.Errorf("clamp failed: %g", got)
	}
	for _, bad := range [][3]float64{{0, 1.5, cs}, {1.5, 1.5, cs}, {0.1, 1, cs}, {0.1, 1.5, 0}} {
		if !math.IsNaN(EtaFromRate(bad[0], bad[1], bad[2])) {
			t.Errorf("expected NaN for %v", bad)
		}
	}
}

func TestDesignForRate(t *testing.T) {
	d := BSSDesign{Alpha: 1.3}
	l, eta, err := d.DesignForRate(1e-3, 1.0, 0.3, 50)
	if err != nil {
		t.Fatal(err)
	}
	if eta <= 0 || eta > 0.99 {
		t.Errorf("eta = %g out of range", eta)
	}
	if l < 1 || l > 50 {
		t.Errorf("L = %d outside [1, 50]", l)
	}
	// Lower rate => larger bias => more extra samples (until the clamp).
	lLow, _, err := d.DesignForRate(1e-5, 1.0, 0.3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	lHigh, _, err := d.DesignForRate(1e-1, 1.0, 0.3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if lLow < lHigh {
		t.Errorf("L should not rise with rate: L(1e-5)=%d, L(1e-1)=%d", lLow, lHigh)
	}
	if _, _, err := d.DesignForRate(0, 1.0, 0.3, 50); err == nil {
		t.Error("expected error for rate 0")
	}
	if _, _, err := d.DesignForRate(1e-3, 0.1, 0.3, 50); err == nil {
		t.Error("expected error below the epsilon floor")
	}
}
