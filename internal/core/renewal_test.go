package core

import (
	"math"
	"testing"

	"repro/internal/lrd"
)

// pmfMean returns E[T] of a gap law, the average sampling interval.
func pmfMean(p IntervalPMF) float64 {
	var m float64
	for k, v := range p.P {
		m += float64(k) * v
	}
	return m
}

func TestSystematicPMF(t *testing.T) {
	if _, err := SystematicPMF(0); err == nil {
		t.Error("expected error for C = 0")
	}
	p, err := SystematicPMF(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.P[5] != 1 {
		t.Errorf("P[5] = %g, want 1", p.P[5])
	}
	if m := pmfMean(p); m != 5 {
		t.Errorf("mean = %g, want 5", m)
	}
}

func TestStratifiedPMF(t *testing.T) {
	if _, err := StratifiedPMF(0); err == nil {
		t.Error("expected error for C = 0")
	}
	p, err := StratifiedPMF(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Triangle peaked at the interval C with mean C.
	if m := pmfMean(p); math.Abs(m-4) > 1e-12 {
		t.Errorf("mean = %g, want 4", m)
	}
	best := 0
	for k, v := range p.P {
		if v > p.P[best] {
			best = k
		}
	}
	if best != 4 {
		t.Errorf("mode at %d, want 4", best)
	}
	// Symmetry around C.
	for d := 1; d < 4; d++ {
		if math.Abs(p.P[4-d]-p.P[4+d]) > 1e-12 {
			t.Errorf("pmf not symmetric at distance %d", d)
		}
	}
}

func TestBernoulliPMF(t *testing.T) {
	if _, err := BernoulliPMF(0, 1e-12); err == nil {
		t.Error("expected error for r = 0")
	}
	if _, err := BernoulliPMF(1, 1e-12); err == nil {
		t.Error("expected error for r = 1")
	}
	p, err := BernoulliPMF(0.25, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if m := pmfMean(p); math.Abs(m-4) > 0.01 {
		t.Errorf("mean gap = %g, want ~4", m)
	}
	// Geometric shape: P[k+1]/P[k] = 1-r.
	for k := 1; k < 20; k++ {
		ratio := p.P[k+1] / p.P[k]
		if math.Abs(ratio-0.75) > 1e-9 {
			t.Errorf("ratio at %d = %g, want 0.75", k, ratio)
		}
	}
	// Invalid tol falls back to the default.
	if _, err := BernoulliPMF(0.5, 5); err != nil {
		t.Errorf("tol fallback failed: %v", err)
	}
}

func TestIntervalPMFValidate(t *testing.T) {
	bad := []IntervalPMF{
		{P: nil},
		{P: []float64{1}},
		{P: []float64{0.5, 0.5}},     // mass at zero
		{P: []float64{0, 0.5}},       // does not sum to 1
		{P: []float64{0, -0.5, 1.5}}, // negative mass
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestGapPMF(t *testing.T) {
	// Systematic sampler's empirical gap law is the degenerate pmf.
	p, err := GapPMF(mustKernel(t, Systematic{Interval: 7}), 10000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.P[7]-1) > 1e-12 {
		t.Errorf("P[7] = %g, want 1", p.P[7])
	}
	// Stratified sampler's empirical gap law matches the triangle.
	s := Stratified{Interval: 8, Rng: newRand(5)}
	p, err = GapPMF(mustKernel(t, s), 400000)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := StratifiedPMF(8)
	for k := 1; k < 16; k++ {
		var w float64
		if k < len(want.P) {
			w = want.P[k]
		}
		var g float64
		if k < len(p.P) {
			g = p.P[k]
		}
		if math.Abs(g-w) > 0.01 {
			t.Errorf("gap %d: empirical %g vs theoretical %g", k, g, w)
		}
	}
	if _, err := GapPMF(mustKernel(t, Systematic{Interval: 7}), 1); err == nil {
		t.Error("expected error for tiny series")
	}
	if _, err := GapPMF(mustKernel(t, Systematic{Interval: 7, Offset: 0}), 7); err == nil {
		t.Error("expected error when fewer than 2 samples result")
	}
}

func sncTaus() []int {
	taus := make([]int, 0, 16)
	for tau := 8; tau <= 96; tau += 8 {
		taus = append(taus, tau)
	}
	return taus
}

func TestCheckSNCSystematicExact(t *testing.T) {
	// Systematic sampling: k(u, tau) = delta(u - tau*C), so
	// Rg(tau) = Rf(C*tau) = Const * C^-beta * tau^-beta — the exponent is
	// preserved exactly.
	acf := lrd.PowerLawACF{Const: 1, Beta: 0.4}
	p, _ := SystematicPMF(6)
	res, err := CheckSNC(p, acf, sncTaus())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.BetaHat-0.4) > 1e-6 {
		t.Errorf("systematic betaHat = %g, want 0.4 exactly", res.BetaHat)
	}
	if !res.Preserved(0.01) {
		t.Error("systematic sampling should preserve the exponent")
	}
}

func TestCheckSNCStratifiedAndBernoulli(t *testing.T) {
	// The paper's Figure 3: both techniques preserve beta across the LRD
	// range.
	for _, beta := range []float64{0.2, 0.5, 0.8} {
		acf := lrd.PowerLawACF{Const: 1, Beta: beta}
		strat, _ := StratifiedPMF(6)
		res, err := CheckSNC(strat, acf, sncTaus())
		if err != nil {
			t.Fatalf("beta=%g stratified: %v", beta, err)
		}
		if math.Abs(res.BetaHat-beta) > 0.05 {
			t.Errorf("stratified beta=%g: betaHat = %g", beta, res.BetaHat)
		}
		bern, _ := BernoulliPMF(1.0/6, 1e-12)
		res, err = CheckSNC(bern, acf, sncTaus())
		if err != nil {
			t.Fatalf("beta=%g bernoulli: %v", beta, err)
		}
		if math.Abs(res.BetaHat-beta) > 0.05 {
			t.Errorf("bernoulli beta=%g: betaHat = %g", beta, res.BetaHat)
		}
	}
}

func TestCheckSNCErrors(t *testing.T) {
	acf := lrd.PowerLawACF{Const: 1, Beta: 0.5}
	p, _ := SystematicPMF(4)
	if _, err := CheckSNC(IntervalPMF{P: []float64{0.5, 0.5}}, acf, sncTaus()); err == nil {
		t.Error("expected error for invalid pmf")
	}
	if _, err := CheckSNC(p, acf, []int{1, 2}); err == nil {
		t.Error("expected error for too few lags")
	}
	if _, err := CheckSNC(p, acf, []int{0, 1, 2}); err == nil {
		t.Error("expected error for lag 0")
	}
}

func TestCheckSNCDirectMatchesFFT(t *testing.T) {
	acf := lrd.PowerLawACF{Const: 2, Beta: 0.6}
	p, _ := StratifiedPMF(4)
	taus := []int{4, 8, 12, 16, 24, 32}
	fft, err := CheckSNC(p, acf, taus)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := CheckSNCDirect(p, acf, taus)
	if err != nil {
		t.Fatal(err)
	}
	for i := range taus {
		if math.Abs(fft.Rg[i]-direct.Rg[i]) > 1e-9*direct.Rg[i] {
			t.Errorf("tau=%d: FFT %g vs direct %g", taus[i], fft.Rg[i], direct.Rg[i])
		}
	}
	if math.Abs(fft.BetaHat-direct.BetaHat) > 1e-9 {
		t.Errorf("betaHat: FFT %g vs direct %g", fft.BetaHat, direct.BetaHat)
	}
}

func TestNegBinomialRgMatchesSNC(t *testing.T) {
	// Eq. (10) evaluated analytically must agree with the FFT machinery
	// fed the geometric gap law.
	acf := lrd.PowerLawACF{Const: 1, Beta: 0.3}
	rho := 0.25
	p, _ := BernoulliPMF(rho, 1e-14)
	taus := []int{8, 16, 24, 32}
	snc, err := CheckSNC(p, acf, taus)
	if err != nil {
		t.Fatal(err)
	}
	for i, tau := range taus {
		direct, err := NegBinomialRg(acf, rho, tau)
		if err != nil {
			t.Fatal(err)
		}
		// Note: CheckSNC computes gaps from the *previous sample* so the
		// total displacement after tau gaps is tau + NB; NegBinomialRg is
		// the same mixture. They must agree to high accuracy.
		if math.Abs(snc.Rg[i]-direct) > 1e-6*direct {
			t.Errorf("tau=%d: SNC %g vs analytic %g", tau, snc.Rg[i], direct)
		}
	}
}

func TestNegBinomialRgErrors(t *testing.T) {
	acf := lrd.PowerLawACF{Const: 1, Beta: 0.3}
	if _, err := NegBinomialRg(acf, 0, 5); err == nil {
		t.Error("expected error for rho = 0")
	}
	if _, err := NegBinomialRg(acf, 1, 5); err == nil {
		t.Error("expected error for rho = 1")
	}
	if _, err := NegBinomialRg(acf, 0.5, 0); err == nil {
		t.Error("expected error for tau = 0")
	}
}

func TestNegBinomialRgRecoversBeta(t *testing.T) {
	// Figure 2 in miniature: fit the analytic Rg over a tau range and
	// recover beta.
	for _, beta := range []float64{0.1, 0.4, 0.8} {
		acf := lrd.PowerLawACF{Const: 100, Beta: beta}
		var lx, ly []float64
		for tau := 64; tau <= 512; tau *= 2 {
			rg, err := NegBinomialRg(acf, 0.5, tau)
			if err != nil {
				t.Fatal(err)
			}
			lx = append(lx, math.Log(float64(tau)))
			ly = append(ly, math.Log(rg))
		}
		// Manual slope from first/last (3+ points, near-perfect line).
		slope := (ly[len(ly)-1] - ly[0]) / (lx[len(lx)-1] - lx[0])
		if math.Abs(-slope-beta) > 0.03 {
			t.Errorf("beta=%g: fitted %g", beta, -slope)
		}
	}
}

func BenchmarkCheckSNCFFT(b *testing.B) {
	acf := lrd.PowerLawACF{Const: 1, Beta: 0.5}
	p, _ := StratifiedPMF(8)
	taus := sncTaus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CheckSNC(p, acf, taus); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckSNCDirect(b *testing.B) {
	acf := lrd.PowerLawACF{Const: 1, Beta: 0.5}
	p, _ := StratifiedPMF(8)
	taus := sncTaus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CheckSNCDirect(p, acf, taus); err != nil {
			b.Fatal(err)
		}
	}
}
