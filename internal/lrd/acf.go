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

// Delta returns delta_tau = R(tau+1) + R(tau-1) - 2R(tau), the discrete
// convexity of the ACF. The pure power law is an *asymptotic* model, valid
// for tau >= 2 where all three lags sit in its range; Delta returns NaN
// below that. For the exact short-lag behaviour (including tau = 1, which
// needs R(0) = 1) use FGNACF.Delta.
func (r PowerLawACF) Delta(tau int) float64 {
	if tau < 2 {
		return math.NaN()
	}
	return r.At(float64(tau+1)) + r.At(float64(tau-1)) - 2*r.At(float64(tau))
}

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

// At returns rho(k) for k >= 0.
func (r FGNACF) At(k int) float64 {
	if k < 0 {
		k = -k
	}
	if k == 0 {
		return 1
	}
	fk := float64(k)
	twoH := 2 * r.H
	return 0.5 * (math.Pow(fk+1, twoH) - 2*math.Pow(fk, twoH) + math.Pow(fk-1, twoH))
}

// Beta returns the implied asymptotic decay exponent 2 - 2H.
func (r FGNACF) Beta() float64 { return BetaFromH(r.H) }

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
