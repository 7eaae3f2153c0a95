package lrd

import (
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/stats"
)

// HurstEstimate is the output of any Hurst estimator: the estimate itself,
// the implied beta = 2 - 2H, and the regression behind it (estimators in
// this package are all regression-based).
type HurstEstimate struct {
	H      float64
	Beta   float64
	Method string
	Fit    stats.LineFit
}

// HurstAggVar estimates H with the aggregated-variance method: for a
// self-similar series Var(f^(m)) ~ sigma^2 * m^(2H-2), so the slope of
// log Var(f^(m)) against log m is 2H - 2 = -beta. Aggregation levels are
// the dyadic grid m = 2^j clipped to [minM, maxM]; maxM <= 0 means
// len(x)/16. The batch path drives the same dyadic ladder the streaming
// StreamAggVar maintains, so the two share one regression core and agree
// exactly on a complete series.
func HurstAggVar(x []float64, minM, maxM int) (HurstEstimate, error) {
	if minM < 1 {
		minM = 1
	}
	if maxM <= 0 {
		maxM = len(x) / 16
	}
	if maxM <= minM || len(x) < 64 {
		return HurstEstimate{}, fmt.Errorf("lrd: aggregated variance needs len >= 64 and maxM > minM (len=%d, minM=%d, maxM=%d)", len(x), minM, maxM)
	}
	var lad StreamAggVar
	for _, v := range x {
		lad.Tick(v)
	}
	return lad.estimateRange(minM, maxM, 8)
}

// nextLevel advances aggregation levels by a factor ~1.5 so log-spacing is
// roughly uniform.
func nextLevel(m int) int {
	next := m * 3 / 2
	if next == m {
		next = m + 1
	}
	return next
}

// HurstRS estimates H with rescaled-range (R/S) analysis: the average
// rescaled range over blocks of size n grows like n^H.
func HurstRS(x []float64) (HurstEstimate, error) {
	if len(x) < 128 {
		return HurstEstimate{}, fmt.Errorf("lrd: R/S needs at least 128 points, got %d", len(x))
	}
	var ln, lrs []float64
	for n := 16; n <= len(x)/4; n = nextLevel(n) {
		blocks := len(x) / n
		var sum float64
		var used int
		for b := 0; b < blocks; b++ {
			rs, ok := rescaledRange(x[b*n : (b+1)*n])
			if ok {
				sum += rs
				used++
			}
		}
		if used == 0 {
			continue
		}
		ln = append(ln, math.Log(float64(n)))
		lrs = append(lrs, math.Log(sum/float64(used)))
	}
	if len(ln) < 3 {
		return HurstEstimate{}, fmt.Errorf("lrd: R/S produced only %d usable block sizes", len(ln))
	}
	fit, err := stats.FitLine(ln, lrs)
	if err != nil {
		return HurstEstimate{}, fmt.Errorf("lrd: R/S: %w", err)
	}
	h := fit.Slope
	return HurstEstimate{H: h, Beta: BetaFromH(h), Method: "rs", Fit: fit}, nil
}

// rescaledRange computes R/S for one block.
func rescaledRange(block []float64) (float64, bool) {
	m := stats.Mean(block)
	s := stats.StdDev(block)
	if s == 0 {
		return 0, false
	}
	var cum, minC, maxC float64
	for _, v := range block {
		cum += v - m
		if cum < minC {
			minC = cum
		}
		if cum > maxC {
			maxC = cum
		}
	}
	r := maxC - minC
	if r <= 0 {
		return 0, false
	}
	return r / s, true
}

// HurstPeriodogram estimates H from the low-frequency behaviour of the
// periodogram: I(lambda) ~ c |lambda|^(1-2H) as lambda -> 0. Only the
// lowest lowFrac of frequencies enter the regression (0 < lowFrac <= 1;
// the customary value is 0.1).
func HurstPeriodogram(x []float64, lowFrac float64) (HurstEstimate, error) {
	if lowFrac <= 0 || lowFrac > 1 {
		return HurstEstimate{}, fmt.Errorf("lrd: lowFrac %g outside (0,1]", lowFrac)
	}
	freqs, power, err := dsp.Periodogram(x)
	if err != nil {
		return HurstEstimate{}, fmt.Errorf("lrd: periodogram estimator: %w", err)
	}
	k := int(float64(len(freqs)) * lowFrac)
	if k < 4 {
		k = 4
	}
	if k > len(freqs) {
		k = len(freqs)
	}
	var lx, ly []float64
	for i := 0; i < k; i++ {
		if power[i] > 0 {
			lx = append(lx, math.Log(freqs[i]))
			ly = append(ly, math.Log(power[i]))
		}
	}
	if len(lx) < 4 {
		return HurstEstimate{}, fmt.Errorf("lrd: periodogram estimator has only %d usable ordinates", len(lx))
	}
	fit, err := stats.FitLine(lx, ly)
	if err != nil {
		return HurstEstimate{}, fmt.Errorf("lrd: periodogram estimator: %w", err)
	}
	h := (1 - fit.Slope) / 2
	return HurstEstimate{H: h, Beta: BetaFromH(h), Method: "periodogram", Fit: fit}, nil
}

// WaveletOptions configures the Abry-Veitch estimator.
type WaveletOptions struct {
	Wavelet dsp.Wavelet // zero value selects Daubechies4
	JMin    int         // first octave used in the regression (1-based); default 3
}

// HurstWavelet is the Abry-Veitch wavelet estimator (the tool the paper
// cites as [22]): regress the debiased logscale diagram
// y_j = log2 mu_j - g(n_j) on octave j >= JMin with weights 1/Var(y_j);
// for an LRD process the slope is 2H - 1.
func HurstWavelet(x []float64, opts WaveletOptions) (HurstEstimate, error) {
	w := opts.Wavelet
	if w.Name() == "" {
		w = dsp.Daubechies4()
	}
	// The pyramid transform halves the series per octave and needs even
	// lengths throughout; analyze the largest power-of-two prefix.
	if n := dsp.NextPow2(len(x)); n > len(x) {
		x = x[:n/2]
	}
	dec, err := w.Decompose(x, 0)
	if err != nil {
		return HurstEstimate{}, fmt.Errorf("lrd: wavelet estimator: %w", err)
	}
	mu, counts := dec.OctaveEnergies()
	jMin := opts.JMin
	if jMin < 1 {
		jMin = 3
	}
	return fitLogscale(mu, counts, jMin)
}

// fitLogscale is the Abry-Veitch regression core shared by the batch
// pyramid estimator and the streaming Haar cascade: debias each octave's
// log2 energy, weight by the inverse logscale variance, and fit
// y_j = log2 mu_j - g(n_j) against j from octave jMin on; the slope is
// 2H - 1. Octaves need at least 8 coefficients and positive energy to
// enter.
func fitLogscale(mu []float64, counts []int, jMin int) (HurstEstimate, error) {
	var xs, ys, ws []float64
	for j := jMin; j <= len(mu); j++ {
		n := counts[j-1]
		// Octaves whose energy is nonpositive (no logarithm) or infinite
		// (overflow on pathological input) cannot enter the fit.
		if n < 8 || mu[j-1] <= 0 || math.IsInf(mu[j-1], 0) {
			continue
		}
		y := math.Log2(mu[j-1]) - stats.LogscaleBiasCorrection(n)
		xs = append(xs, float64(j))
		ys = append(ys, y)
		ws = append(ws, 1/stats.LogscaleVariance(n))
	}
	if len(xs) < 3 {
		return HurstEstimate{}, fmt.Errorf("lrd: wavelet estimator has only %d usable octaves (series too short?)", len(xs))
	}
	fit, err := stats.FitLineWeighted(xs, ys, ws)
	if err != nil {
		return HurstEstimate{}, fmt.Errorf("lrd: wavelet estimator: %w", err)
	}
	h := (fit.Slope + 1) / 2
	return HurstEstimate{H: h, Beta: BetaFromH(h), Method: "wavelet", Fit: fit}, nil
}

// HurstDFA estimates H with detrended fluctuation analysis: integrate the
// series, split into windows of size n, remove a least-squares line per
// window, and regress log F(n) on log n; for fGn-like series the slope is
// H.
func HurstDFA(x []float64) (HurstEstimate, error) {
	if len(x) < 256 {
		return HurstEstimate{}, fmt.Errorf("lrd: DFA needs at least 256 points, got %d", len(x))
	}
	mean := stats.Mean(x)
	profile := make([]float64, len(x))
	var cum float64
	for i, v := range x {
		cum += v - mean
		profile[i] = cum
	}
	var ln, lf []float64
	for n := 8; n <= len(x)/4; n = nextLevel(n) {
		blocks := len(profile) / n
		if blocks < 4 {
			break
		}
		var sse float64
		var cnt int
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		for b := 0; b < blocks; b++ {
			seg := profile[b*n : (b+1)*n]
			fit, err := stats.FitLine(xs, seg)
			if err != nil {
				continue
			}
			for i, v := range seg {
				r := v - fit.Eval(xs[i])
				sse += r * r
			}
			cnt += n
		}
		if cnt == 0 {
			continue
		}
		f := math.Sqrt(sse / float64(cnt))
		if f <= 0 {
			continue
		}
		ln = append(ln, math.Log(float64(n)))
		lf = append(lf, math.Log(f))
	}
	if len(ln) < 3 {
		return HurstEstimate{}, fmt.Errorf("lrd: DFA produced only %d usable window sizes", len(ln))
	}
	fit, err := stats.FitLine(ln, lf)
	if err != nil {
		return HurstEstimate{}, fmt.Errorf("lrd: DFA: %w", err)
	}
	h := fit.Slope
	return HurstEstimate{H: h, Beta: BetaFromH(h), Method: "dfa", Fit: fit}, nil
}

// EstimateAll runs every estimator that succeeds on x and returns the
// results keyed by method name. It never fails outright: callers decide
// what to do when a subset of estimators errors out.
func EstimateAll(x []float64) map[string]HurstEstimate {
	out := make(map[string]HurstEstimate, 5)
	if e, err := HurstAggVar(x, 1, 0); err == nil {
		out[e.Method] = e
	}
	if e, err := HurstRS(x); err == nil {
		out[e.Method] = e
	}
	if e, err := HurstPeriodogram(x, 0.1); err == nil {
		out[e.Method] = e
	}
	if e, err := HurstWavelet(x, WaveletOptions{}); err == nil {
		out[e.Method] = e
	}
	if e, err := HurstDFA(x); err == nil {
		out[e.Method] = e
	}
	return out
}
