// Package lrd implements the long-range-dependence substrate of the
// reproduction: exact fractional Gaussian noise generation (Davies-Harte
// circulant embedding), series aggregation, autocorrelation models, the
// convexity quantity delta_tau of Theorem 2, and five Hurst-parameter
// estimators (aggregated variance, R/S, periodogram, Abry-Veitch wavelet,
// and DFA).
package lrd

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/dsp"
)

// HFromBeta converts the ACF decay exponent beta (R(tau) ~ tau^-beta,
// 0 < beta < 1) to the Hurst parameter H = 1 - beta/2.
func HFromBeta(beta float64) float64 { return 1 - beta/2 }

// BetaFromH converts a Hurst parameter to the ACF decay exponent
// beta = 2 - 2H.
func BetaFromH(h float64) float64 { return 2 - 2*h }

// AlphaFromH converts a Hurst parameter to the ON/OFF-period tail index of
// the superposition model, alpha = 3 - 2H (equivalently alpha = beta + 1).
func AlphaFromH(h float64) float64 { return 3 - 2*h }

// FGNAutocov returns the autocovariance gamma(0..n) of unit-variance
// fractional Gaussian noise with Hurst parameter h:
//
//	gamma(k) = ( |k+1|^2H - 2|k|^2H + |k-1|^2H ) / 2.
//
// It is FGNACF.At at each lag.
func FGNAutocov(h float64, n int) []float64 {
	out := make([]float64, n+1)
	r := FGNACF{H: h}
	for k := range out {
		out[k] = r.At(k)
	}
	return out
}

// FGN generates exact fractional Gaussian noise via the Davies-Harte
// circulant embedding method. Construction is O(n log n) and the
// eigenvalue decomposition is cached, so repeated Generate calls cost one
// FFT each.
type FGN struct {
	n          int
	sqrtEigen  []float64 // sqrt(lambda_k / (2m)) for m = 2n
	mean, sdev float64
}

// NewFGN prepares a generator of series of length n (rounded up to a power
// of two internally; Generate returns exactly n points) with Hurst
// parameter h in (0, 1). mean and sdev shift/scale the output.
func NewFGN(h float64, n int, mean, sdev float64) (*FGN, error) {
	if h <= 0 || h >= 1 {
		return nil, fmt.Errorf("lrd: Hurst parameter %g outside (0,1)", h)
	}
	if n < 2 {
		return nil, fmt.Errorf("lrd: fGn length %d too short", n)
	}
	if sdev < 0 {
		return nil, fmt.Errorf("lrd: negative standard deviation %g", sdev)
	}
	np := dsp.NextPow2(n)
	m := 2 * np
	gamma := FGNAutocov(h, np)
	// Circulant first row: gamma(0..np), gamma(np-1 .. 1).
	c := make([]complex128, m)
	for k := 0; k <= np; k++ {
		c[k] = complex(gamma[k], 0)
	}
	for k := 1; k < np; k++ {
		c[m-k] = complex(gamma[k], 0)
	}
	eig := dsp.FFT(c)
	sqrtEigen := make([]float64, m)
	for k, v := range eig {
		lam := real(v)
		if lam < 0 {
			// Davies-Harte eigenvalues are provably nonnegative for fGn;
			// tiny negatives are rounding noise.
			if lam < -1e-8 {
				return nil, fmt.Errorf("lrd: circulant embedding failed for H=%g (eigenvalue %g)", h, lam)
			}
			lam = 0
		}
		sqrtEigen[k] = math.Sqrt(lam / float64(m))
	}
	return &FGN{n: n, sqrtEigen: sqrtEigen, mean: mean, sdev: sdev}, nil
}

// Generate draws one fGn sample path of length n.
func (g *FGN) Generate(rng *rand.Rand) []float64 {
	m := len(g.sqrtEigen)
	half := m / 2
	w := make([]complex128, m)
	w[0] = complex(g.sqrtEigen[0]*rng.NormFloat64()*math.Sqrt2, 0)
	w[half] = complex(g.sqrtEigen[half]*rng.NormFloat64()*math.Sqrt2, 0)
	for k := 1; k < half; k++ {
		re := rng.NormFloat64()
		im := rng.NormFloat64()
		w[k] = complex(g.sqrtEigen[k]*re, g.sqrtEigen[k]*im)
		w[m-k] = complex(real(w[k]), -imag(w[k]))
	}
	spec := dsp.FFT(w)
	out := make([]float64, g.n)
	for i := range out {
		out[i] = g.mean + g.sdev*real(spec[i])/math.Sqrt2
	}
	return out
}
