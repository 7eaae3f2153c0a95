package lrd

import (
	"fmt"
	"math"
)

// PowerLawACF is the asymptotic autocorrelation model of the paper,
// R(tau) ~ Const * tau^-beta with 0 < beta < 1 (long-range dependence).
type PowerLawACF struct {
	Const float64
	Beta  float64
}

// At returns R(tau); R(0) is defined as Const (the tau -> 0 limit is
// irrelevant for the asymptotic analyses that use this model).
func (r PowerLawACF) At(tau float64) float64 {
	if tau <= 0 {
		return r.Const
	}
	return r.Const * math.Pow(tau, -r.Beta)
}

// Hurst returns the Hurst parameter 1 - beta/2 implied by the decay.
func (r PowerLawACF) Hurst() float64 { return HFromBeta(r.Beta) }

// FGNACF is the exact autocorrelation of fractional Gaussian noise with
// Hurst parameter H = 1 - beta/2:
//
//	rho(k) = ( |k+1|^2H - 2|k|^2H + |k-1|^2H ) / 2,  rho(0) = 1.
//
// It agrees with the power law const*tau^-beta asymptotically but is a
// genuine ACF at every lag, which is what Theorem 2's convexity condition
// delta_tau >= 0 must be checked against (the paper's Figure 4).
type FGNACF struct {
	H float64
}

// NewFGNACF validates H in (1/2, 1), the LRD regime.
func NewFGNACF(h float64) (FGNACF, error) {
	if h <= 0.5 || h >= 1 {
		return FGNACF{}, fmt.Errorf("lrd: FGNACF Hurst %g outside the LRD range (0.5,1)", h)
	}
	return FGNACF{H: h}, nil
}

// At returns rho(|k|), computed as k^2H/2 * (expm1(2H log1p(1/k)) +
// expm1(2H log1p(-1/k))). The textbook form subtracts three numbers of
// size k^2H, a cancellation that costs a factor of k^2 in relative
// error (5e-4 at lag 2^20, enough for the circulant FFT of NewFGN to
// see negative eigenvalues); this form adds two terms of size 2H/k to
// get one of size 1/k^2, which costs a factor of k (relative error
// about eps*k, 2e-9 at lag 2^23).
func (r FGNACF) At(k int) float64 {
	if k < 0 {
		k = -k
	}
	if k == 0 {
		return 1
	}
	fk, twoH := float64(k), 2*r.H
	return 0.5 * math.Pow(fk, twoH) * (math.Expm1(twoH*math.Log1p(1/fk)) + math.Expm1(twoH*math.Log1p(-1/fk)))
}

// Delta returns delta_tau = rho(tau+1) + rho(tau-1) - 2*rho(tau) for
// tau >= 1. Theorem 2 (Cochran) orders the sampling variances
// E(Vsy) <= E(Vrs) <= E(Vran) whenever this is nonnegative; Figure 4 of
// the paper verifies that it is, for every beta in (0,1).
func (r FGNACF) Delta(tau int) float64 {
	if tau < 1 {
		return math.NaN()
	}
	return r.At(tau+1) + r.At(tau-1) - 2*r.At(tau)
}

// DeltaSeries returns delta_tau for tau = 1..maxTau.
func (r FGNACF) DeltaSeries(maxTau int) []float64 {
	out := make([]float64, maxTau)
	for tau := 1; tau <= maxTau; tau++ {
		out[tau-1] = r.Delta(tau)
	}
	return out
}
