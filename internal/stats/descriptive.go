// Package stats provides the statistical substrate for the reproduction:
// descriptive statistics, streaming (Welford) accumulators, ordinary and
// weighted least-squares regression, empirical distribution functions,
// autocorrelation estimates and the special functions the wavelet Hurst
// estimator needs. All functions are pure and allocation-conscious.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of x, or NaN for empty input.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Sum returns the sum of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Variance returns the population variance (divide by n) of x, or NaN for
// input shorter than 1. A two-pass algorithm keeps it numerically stable.
func Variance(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// SampleVariance returns the unbiased (divide by n-1) variance, or NaN for
// fewer than two observations.
func SampleVariance(x []float64) float64 {
	if len(x) < 2 {
		return math.NaN()
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x)-1)
}

// StdDev returns the population standard deviation of x.
func StdDev(x []float64) float64 { return math.Sqrt(Variance(x)) }

// MinMax returns the smallest and largest element of x; NaNs for empty input.
func MinMax(x []float64) (minV, maxV float64) {
	if len(x) == 0 {
		return math.NaN(), math.NaN()
	}
	minV, maxV = x[0], x[0]
	for _, v := range x[1:] {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	return minV, maxV
}

// Quantile returns the q-th empirical quantile (0 <= q <= 1) of x using
// linear interpolation between order statistics. x need not be sorted.
func Quantile(x []float64, q float64) (float64, error) {
	if len(x) == 0 {
		return 0, fmt.Errorf("stats: quantile of empty slice")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile level %g outside [0,1]", q)
	}
	sorted := make([]float64, len(x))
	copy(sorted, x)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the empirical median of x.
func Median(x []float64) (float64, error) { return Quantile(x, 0.5) }

// Accumulator is a streaming mean/variance tracker using Welford's
// algorithm. The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	sum  float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(v float64) {
	if a.n == 0 {
		a.min, a.max = v, v
	} else {
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
	}
	a.n++
	a.sum += v
	a.mean, a.m2 = Welford(a.n, a.mean, a.m2, v)
}

// Welford is one step of Welford's recurrence: the mean and sum of
// squared deviations after folding v in as observation n (1-based).
// Add applies it; a tight loop that hoists an accumulator's state into
// locals (State, then SetState) applies it to stay on Add's exact
// arithmetic.
func Welford(n int, mean, m2, v float64) (float64, float64) {
	delta := v - mean
	mean += delta / float64(n)
	return mean, m2 + delta*(v-mean)
}

// Extend widens the range [lo, hi] to cover v, the way Add tracks
// Min and Max once it holds an observation (NaN never widens it).
func Extend(lo, hi, v float64) (float64, float64) {
	if v < lo {
		lo = v
	}
	if v > hi {
		hi = v
	}
	return lo, hi
}

// AddAll folds a batch of observations, bit for bit like one Add per
// value but with the state held in locals across the batch.
func (a *Accumulator) AddAll(xs []float64) {
	if len(xs) == 0 {
		return
	}
	if a.n == 0 {
		a.min, a.max = xs[0], xs[0]
	}
	n, mean, m2, sum, lo, hi := a.n, a.mean, a.m2, a.sum, a.min, a.max
	for _, v := range xs {
		lo, hi = Extend(lo, hi, v)
		sum += v
		n++
		mean, m2 = Welford(n, mean, m2, v)
	}
	a.n, a.mean, a.m2, a.sum, a.min, a.max = n, mean, m2, sum, lo, hi
}

// N returns the number of observations seen so far.
func (a *Accumulator) N() int { return a.n }

// Mean returns the running mean (NaN before any observation).
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.mean
}

// Sum returns the running sum.
func (a *Accumulator) Sum() float64 { return a.sum }

// Variance returns the running population variance (NaN before any
// observation).
func (a *Accumulator) Variance() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.m2 / float64(a.n)
}

// SampleVariance returns the running unbiased variance (NaN below two
// observations).
func (a *Accumulator) SampleVariance() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return a.m2 / float64(a.n-1)
}

// Min returns the smallest observation seen (NaN before any observation).
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.min
}

// Max returns the largest observation seen (NaN before any observation).
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.max
}

// AccumulatorState is the exported form of an Accumulator's internal
// state, for exact serialization: State followed by SetState reproduces
// the accumulator bit for bit, so a restored stream continues the same
// Welford recursion a never-stopped one would.
type AccumulatorState struct {
	N                       int
	Mean, M2, Sum, Min, Max float64
}

// State captures the accumulator's internal state.
func (a *Accumulator) State() AccumulatorState {
	return AccumulatorState{N: a.n, Mean: a.mean, M2: a.m2, Sum: a.sum, Min: a.min, Max: a.max}
}

// SetState overwrites the accumulator with a previously captured state.
func (a *Accumulator) SetState(s AccumulatorState) {
	a.n, a.mean, a.m2, a.sum, a.min, a.max = s.N, s.Mean, s.M2, s.Sum, s.Min, s.Max
}

// Merge folds another accumulator into a (parallel reduction support).
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	delta := b.mean - a.mean
	mean := a.mean + delta*float64(b.n)/float64(n)
	m2 := a.m2 + b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(n)
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.n, a.mean, a.m2 = n, mean, m2
	a.sum += b.sum
}
