// Package dist provides the heavy-tailed distribution machinery the
// paper's traffic models stand on: a deterministic PCG random source,
// the Pareto law (the paper's model for burst durations, per-burst rates
// and the marginal of f(t) itself, Section V-B), and a log-log CCDF tail
// fitter used to measure tail indices from traces (Figures 8-10).
package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/stats"
)

// NewRand returns a deterministic PCG-backed random source. Every
// randomized component of the reproduction takes its randomness from
// here so experiments are replayable from a single seed.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// Pareto is the Pareto(alpha, xm) law with CCDF Pr(X > x) = (xm/x)^alpha
// for x >= xm. Alpha in (1, 2) gives the infinite-variance regime that
// induces self-similarity in the ON/OFF construction.
type Pareto struct {
	Alpha float64 // shape (tail index)
	Xm    float64 // scale (minimum value)
}

// NewPareto validates the parameters.
func NewPareto(alpha, xm float64) (Pareto, error) {
	if !(alpha > 0) {
		return Pareto{}, fmt.Errorf("dist: Pareto shape %g must be > 0", alpha)
	}
	if !(xm > 0) {
		return Pareto{}, fmt.Errorf("dist: Pareto scale %g must be > 0", xm)
	}
	return Pareto{Alpha: alpha, Xm: xm}, nil
}

// Sample draws one variate by inverse transform. 1-U lies in (0, 1], so
// the result is finite.
func (p Pareto) Sample(rng *rand.Rand) float64 {
	return p.Xm * math.Pow(1-rng.Float64(), -1/p.Alpha)
}

// Quantile returns the q-quantile, q in [0, 1).
func (p Pareto) Quantile(q float64) float64 {
	return p.Xm * math.Pow(1-q, -1/p.Alpha)
}

// ParetoTailFit is the result of fitting a Pareto tail to a sample.
type ParetoTailFit struct {
	Alpha float64       // estimated tail index (negated CCDF slope)
	Xm    float64       // smallest value included in the fitted tail
	Fit   stats.LineFit // the underlying log-log CCDF regression
}

// FitParetoTail estimates the tail index of a positive sample by linear
// regression of the empirical log-CCDF against log(x) over the largest
// frac of the observations — the standard log-log complementary-CDF fit
// the paper uses for Figures 8-10. frac must lie in (0, 1]; at least ten
// distinct tail points are required.
func FitParetoTail(sample []float64, frac float64) (ParetoTailFit, error) {
	if !(frac > 0) || frac > 1 {
		return ParetoTailFit{}, fmt.Errorf("dist: tail fraction %g outside (0,1]", frac)
	}
	n := len(sample)
	k := int(frac*float64(n) + 0.5)
	if k < 10 {
		return ParetoTailFit{}, fmt.Errorf("dist: tail fit needs >= 10 points, frac %g of %d gives %d", frac, n, k)
	}
	sorted := make([]float64, n)
	copy(sorted, sample)
	sort.Float64s(sorted)
	// Tail = the k largest values. The empirical CCDF at the i-th order
	// statistic (0-based, ascending) is (n-i-0.5)/n, the midpoint rule that
	// keeps the largest observation on the plot.
	var lx, ly []float64
	for i := n - k; i < n; i++ {
		x := sorted[i]
		if x <= 0 {
			return ParetoTailFit{}, fmt.Errorf("dist: tail fit needs positive values, got %g", x)
		}
		// Collapse ties onto the true CCDF: keep only the last of a run of
		// equal values, whose plotting position is the fraction strictly
		// above it.
		if i+1 < n && sorted[i+1] == x {
			continue
		}
		ccdf := (float64(n-i) - 0.5) / float64(n)
		lx = append(lx, math.Log(x))
		ly = append(ly, math.Log(ccdf))
	}
	if len(lx) < 2 {
		return ParetoTailFit{}, fmt.Errorf("dist: tail has only %d distinct values", len(lx))
	}
	fit, err := stats.FitLine(lx, ly)
	if err != nil {
		return ParetoTailFit{}, fmt.Errorf("dist: tail regression: %w", err)
	}
	return ParetoTailFit{Alpha: -fit.Slope, Xm: sorted[n-k], Fit: fit}, nil
}
