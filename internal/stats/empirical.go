package stats

import (
	"fmt"
	"math"
	"sort"
)

// CCDF returns the empirical complementary cumulative distribution function
// of the sample: for each distinct value v in ascending order,
// P(X > v) = (#observations strictly greater than v) / n.
// The final point (the maximum) has probability 0 and is omitted, matching
// the usual log-log tail plots.
func CCDF(sample []float64) (values, prob []float64, err error) {
	n := len(sample)
	if n == 0 {
		return nil, nil, fmt.Errorf("stats: CCDF of empty sample")
	}
	sorted := make([]float64, n)
	copy(sorted, sample)
	sort.Float64s(sorted)
	values = make([]float64, 0, n)
	prob = make([]float64, 0, n)
	for i := 0; i < n; {
		j := i
		for j < n && sorted[j] == sorted[i] {
			j++
		}
		// P(X > sorted[i]) = (n - j) / n.
		if n-j > 0 {
			values = append(values, sorted[i])
			prob = append(prob, float64(n-j)/float64(n))
		}
		i = j
	}
	if len(values) == 0 {
		return nil, nil, fmt.Errorf("stats: CCDF degenerate (all %d observations equal)", n)
	}
	return values, prob, nil
}

// ECDF returns a function evaluating the empirical CDF of the sample.
func ECDF(sample []float64) (func(float64) float64, error) {
	if len(sample) == 0 {
		return nil, fmt.Errorf("stats: ECDF of empty sample")
	}
	sorted := make([]float64, len(sample))
	copy(sorted, sample)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	return func(x float64) float64 {
		idx := sort.SearchFloat64s(sorted, math.Nextafter(x, math.Inf(1)))
		return float64(idx) / n
	}, nil
}

// Histogram bins the sample into k equal-width bins over [min, max].
type Histogram struct {
	Edges  []float64 // k+1 bin edges
	Counts []int     // k counts
	N      int       // total observations (including clamped extremes)
}

// NewHistogram builds a histogram with k >= 1 bins spanning the sample
// range. Values exactly at the maximum fall in the last bin.
func NewHistogram(sample []float64, k int) (Histogram, error) {
	if len(sample) == 0 {
		return Histogram{}, fmt.Errorf("stats: histogram of empty sample")
	}
	if k < 1 {
		return Histogram{}, fmt.Errorf("stats: histogram needs k >= 1 bins, got %d", k)
	}
	lo, hi := MinMax(sample)
	if lo == hi {
		hi = lo + 1 // avoid zero-width bins for constant samples
	}
	h := Histogram{
		Edges:  make([]float64, k+1),
		Counts: make([]int, k),
		N:      len(sample),
	}
	width := (hi - lo) / float64(k)
	for i := 0; i <= k; i++ {
		h.Edges[i] = lo + float64(i)*width
	}
	for _, v := range sample {
		idx := int((v - lo) / width)
		if idx < 0 {
			idx = 0
		}
		if idx >= k {
			idx = k - 1
		}
		h.Counts[idx]++
	}
	return h, nil
}

// Autocovariance returns gamma(0..maxLag) where
// gamma(tau) = (1/n) sum_{t} (x[t]-mean)(x[t+tau]-mean).
// The biased (1/n) normalization is standard for time series.
func Autocovariance(x []float64, maxLag int) ([]float64, error) {
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("stats: autocovariance of empty series")
	}
	if maxLag < 0 || maxLag >= n {
		return nil, fmt.Errorf("stats: maxLag %d out of range for series of length %d", maxLag, n)
	}
	m := Mean(x)
	out := make([]float64, maxLag+1)
	for tau := 0; tau <= maxLag; tau++ {
		var s float64
		for t := 0; t+tau < n; t++ {
			s += (x[t] - m) * (x[t+tau] - m)
		}
		out[tau] = s / float64(n)
	}
	return out, nil
}
