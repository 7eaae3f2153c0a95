package stats

import "fmt"

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
