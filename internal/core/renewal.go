package core

import (
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/lrd"
	"repro/internal/stats"
)

// newRand mirrors dist.NewRand without importing it, keeping core's
// dependency surface minimal; the wrapper keeps the PCG position
// exportable for state snapshots (see Rand).
func newRand(seed uint64) *Rand {
	return NewSeededRand(seed)
}

// IntervalPMF is the probability mass function H(x) of the i.i.d. gaps
// T_i = Z_{i+1} - Z_i between consecutive sampling points, the renewal
// description of a sampling technique in the paper's Section III-D.
// P[k] = Pr(T = k); P[0] must be 0 (gaps are at least one tick).
type IntervalPMF struct {
	P []float64
}

// Validate checks that P is a pmf with no mass at zero.
func (p IntervalPMF) Validate() error {
	if len(p.P) < 2 {
		return fmt.Errorf("core: interval pmf needs support beyond gap 0 (len %d)", len(p.P))
	}
	if p.P[0] != 0 {
		return fmt.Errorf("core: interval pmf has mass %g at gap 0", p.P[0])
	}
	var sum float64
	for k, v := range p.P {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("core: interval pmf has invalid mass %g at gap %d", v, k)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("core: interval pmf sums to %g, want 1", sum)
	}
	return nil
}

// SystematicPMF is the degenerate gap law of systematic sampling:
// Pr(T = C) = 1.
func SystematicPMF(c int) (IntervalPMF, error) {
	if c < 1 {
		return IntervalPMF{}, fmt.Errorf("core: systematic interval %d must be >= 1", c)
	}
	p := make([]float64, c+1)
	p[c] = 1
	return IntervalPMF{P: p}, nil
}

// StratifiedPMF is the triangular gap law of stratified random sampling
// (the paper's Eq. 12): the gap between the uniform picks of two adjacent
// strata of length C is C + U2 - U1 with U1, U2 independent uniform on
// {0..C-1}, giving a discrete triangle on (0, 2C).
func StratifiedPMF(c int) (IntervalPMF, error) {
	if c < 1 {
		return IntervalPMF{}, fmt.Errorf("core: stratified interval %d must be >= 1", c)
	}
	p := make([]float64, 2*c)
	cc := float64(c * c)
	for d := -(c - 1); d <= c-1; d++ {
		gap := c + d
		// Pr(U2 - U1 = d) = (C - |d|)/C^2.
		p[gap] = float64(c-abs(d)) / cc
	}
	return IntervalPMF{P: p}, nil
}

// BernoulliPMF is the geometric gap law of probabilistic 1-in-1/r sampling
// (the paper's Eq. 13), truncated where the remaining tail mass falls
// below tol; the truncated mass is renormalized into the last bin so the
// pmf still sums to one.
func BernoulliPMF(r, tol float64) (IntervalPMF, error) {
	if !(r > 0) || r >= 1 {
		return IntervalPMF{}, fmt.Errorf("core: Bernoulli rate %g outside (0,1)", r)
	}
	if !(tol > 0) || tol >= 1 {
		tol = 1e-12
	}
	// Tail Pr(T > k) = (1-r)^k < tol  =>  k > log(tol)/log(1-r).
	maxGap := int(math.Ceil(math.Log(tol)/math.Log(1-r))) + 1
	if maxGap < 2 {
		maxGap = 2
	}
	p := make([]float64, maxGap+1)
	var sum float64
	for k := 1; k <= maxGap; k++ {
		p[k] = math.Pow(1-r, float64(k-1)) * r
		sum += p[k]
	}
	p[maxGap] += 1 - sum // fold the truncated tail into the last bin
	return IntervalPMF{P: p}, nil
}

// GapPMF estimates the empirical gap law of a fresh kernel by running
// it on a dummy series and histogramming the index gaps — the bridge
// that lets Theorem 1 be applied to techniques with no closed-form
// H(x).
func GapPMF(k Kernel, seriesLen int) (IntervalPMF, error) {
	if seriesLen < 2 {
		return IntervalPMF{}, fmt.Errorf("core: series length %d too short to estimate gaps", seriesLen)
	}
	f := make([]float64, seriesLen) // values are irrelevant for gap structure
	samples, err := Collect(k, f)
	if err != nil {
		return IntervalPMF{}, fmt.Errorf("core: estimating gap pmf: %w", err)
	}
	if len(samples) < 2 {
		return IntervalPMF{}, fmt.Errorf("core: sampler yielded %d samples, need >= 2", len(samples))
	}
	maxGap := 0
	for i := 1; i < len(samples); i++ {
		if g := samples[i].Index - samples[i-1].Index; g > maxGap {
			maxGap = g
		}
	}
	p := make([]float64, maxGap+1)
	n := float64(len(samples) - 1)
	for i := 1; i < len(samples); i++ {
		p[samples[i].Index-samples[i-1].Index] += 1 / n
	}
	return IntervalPMF{P: p}, nil
}

// SNCResult reports the numerical Theorem 1 check: the autocorrelation of
// the thinned process computed through the tau-fold convolution of the gap
// law, and the power-law exponent recovered from it.
type SNCResult struct {
	Taus    []int     // lags of the sampled process
	Rg      []float64 // Rg(tau) = sum_u Rf(u) k(u, tau)
	BetaHat float64   // fitted decay exponent of Rg
	Beta    float64   // the original process' exponent
	Fit     stats.LineFit
}

// Preserved reports whether the fitted exponent matches the original
// within tol, i.e. whether the sampling technique satisfies the SNC and
// keeps the Hurst parameter.
func (r SNCResult) Preserved(tol float64) bool {
	return math.Abs(r.BetaHat-r.Beta) <= tol
}

// CheckSNC evaluates Theorem 1 numerically for the sampling technique
// described by gap law p against the LRD model Rf(tau) = Const*tau^-beta:
// it computes k(u, tau) = p^(*tau) with the FFT (steps S1-S3 of the
// paper), forms Rg(tau) = sum_u Rf(u) k(u, tau) for each requested tau,
// and fits log Rg against log tau. The technique preserves second-order
// statistics iff the fitted slope is -beta.
func CheckSNC(p IntervalPMF, acf lrd.PowerLawACF, taus []int) (SNCResult, error) {
	if err := p.Validate(); err != nil {
		return SNCResult{}, err
	}
	if len(taus) < 3 {
		return SNCResult{}, fmt.Errorf("core: need at least 3 lags for the SNC fit, got %d", len(taus))
	}
	res := SNCResult{Taus: taus, Rg: make([]float64, len(taus)), Beta: acf.Beta}
	for i, tau := range taus {
		if tau < 1 {
			return SNCResult{}, fmt.Errorf("core: SNC lag %d must be >= 1", tau)
		}
		k, err := dsp.SelfConvolvePower(p.P, tau)
		if err != nil {
			return SNCResult{}, fmt.Errorf("core: convolving gap pmf to order %d: %w", tau, err)
		}
		var rg float64
		for u, mass := range k {
			if mass > 0 && u > 0 {
				rg += acf.At(float64(u)) * mass
			}
		}
		res.Rg[i] = rg
	}
	lx := make([]float64, len(taus))
	ly := make([]float64, len(taus))
	for i, tau := range taus {
		lx[i] = math.Log(float64(tau))
		if res.Rg[i] <= 0 {
			return SNCResult{}, fmt.Errorf("core: nonpositive Rg(%d) = %g", tau, res.Rg[i])
		}
		ly[i] = math.Log(res.Rg[i])
	}
	fit, err := stats.FitLine(lx, ly)
	if err != nil {
		return SNCResult{}, fmt.Errorf("core: fitting SNC slope: %w", err)
	}
	res.BetaHat = -fit.Slope
	res.Fit = fit
	return res, nil
}

// CheckSNCDirect is CheckSNC with the convolution powers computed by
// repeated direct convolution instead of the FFT. It exists as the
// baseline of the FFT-vs-direct ablation; results are identical up to
// rounding.
func CheckSNCDirect(p IntervalPMF, acf lrd.PowerLawACF, taus []int) (SNCResult, error) {
	if err := p.Validate(); err != nil {
		return SNCResult{}, err
	}
	if len(taus) < 3 {
		return SNCResult{}, fmt.Errorf("core: need at least 3 lags for the SNC fit, got %d", len(taus))
	}
	res := SNCResult{Taus: taus, Rg: make([]float64, len(taus)), Beta: acf.Beta}
	for i, tau := range taus {
		if tau < 1 {
			return SNCResult{}, fmt.Errorf("core: SNC lag %d must be >= 1", tau)
		}
		k, err := dsp.SelfConvolvePowerDirect(p.P, tau)
		if err != nil {
			return SNCResult{}, err
		}
		var rg float64
		for u, mass := range k {
			if mass > 0 && u > 0 {
				rg += acf.At(float64(u)) * mass
			}
		}
		res.Rg[i] = rg
	}
	lx := make([]float64, len(taus))
	ly := make([]float64, len(taus))
	for i, tau := range taus {
		lx[i] = math.Log(float64(tau))
		if res.Rg[i] <= 0 {
			return SNCResult{}, fmt.Errorf("core: nonpositive Rg(%d) = %g", tau, res.Rg[i])
		}
		ly[i] = math.Log(res.Rg[i])
	}
	fit, err := stats.FitLine(lx, ly)
	if err != nil {
		return SNCResult{}, err
	}
	res.BetaHat = -fit.Slope
	res.Fit = fit
	return res, nil
}

// NegBinomialRg evaluates the paper's Eq. (10) for simple random sampling
// analytically: Rg(tau) = E[Rf(tau + I)] with I negative-binomial
// (tau successes, success probability rho). Terms are accumulated in log
// space until the remaining pmf mass drops below 1e-12. This closed-ish
// form cross-validates the FFT pipeline of CheckSNC.
func NegBinomialRg(acf lrd.PowerLawACF, rho float64, tau int) (float64, error) {
	if !(rho > 0) || rho >= 1 {
		return 0, fmt.Errorf("core: rho %g outside (0,1)", rho)
	}
	if tau < 1 {
		return 0, fmt.Errorf("core: tau %d must be >= 1", tau)
	}
	logRho := math.Log(rho)
	log1m := math.Log(1 - rho)
	var sum, mass float64
	// E[I] = tau(1-rho)/rho; sum far past it until mass ~ 1.
	limit := int(float64(tau)*(1-rho)/rho)*8 + 200
	for i := 0; i <= limit; i++ {
		// log NB(i) = log C(tau+i-1, i) + tau log rho + i log(1-rho)
		logPMF := stats.LogChoose(tau+i-1, i) + float64(tau)*logRho + float64(i)*log1m
		p := math.Exp(logPMF)
		sum += acf.At(float64(tau+i)) * p
		mass += p
		if 1-mass < 1e-12 {
			break
		}
	}
	if mass < 0.999 {
		return 0, fmt.Errorf("core: negative-binomial sum truncated with mass %g (tau=%d, rho=%g)", mass, tau, rho)
	}
	return sum, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
