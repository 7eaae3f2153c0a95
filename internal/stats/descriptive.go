// Package stats provides the statistical substrate for the reproduction:
// descriptive statistics, streaming accumulators (Welford steps one
// value at a time, batches folded in one merge), ordinary and weighted
// least-squares regression, empirical distribution functions,
// autocorrelation estimates and the special functions the wavelet Hurst
// estimator needs. All functions are pure and allocation-conscious.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/binenc"
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

// Accumulator is a streaming mean/variance tracker: Welford's
// algorithm one value at a time (Add), Chan et al.'s pairwise merge a
// batch at a time (AddAll, Run and Merge). The zero value is ready to
// use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	sum  float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator: one step of
// Welford's recurrence.
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
	delta := v - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (v - a.mean)
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

// addAllChunk is the most values AddAll folds per FoldPairs call, so
// the pair sums FoldPairs writes fit one stack buffer.
const addAllChunk = 1024

// AddAll folds a batch of observations as one Run and one Merge: no
// division per value. A one-value batch is Add, bit for bit; a longer
// one agrees with one Add per value within FoldTolerance (see
// CompareFolded), and Min and Max exactly. The same batches always give
// the same bytes.
//
//samplelint:hotpath
func (a *Accumulator) AddAll(xs []float64) {
	r := a.Run(len(xs))
	var buf [addAllChunk / 2]float64
	for len(xs) > 0 {
		chunk := xs[:min(len(xs), addAllChunk)]
		xs = xs[len(chunk):]
		r.FoldPairs(chunk, 1, buf[:])
	}
	a.Merge(&r)
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

// AccumulatorState is the exported form of an Accumulator's internal
// state, for exact serialization: State followed by SetState reproduces
// the accumulator bit for bit, so a restored stream continues with the
// same arithmetic a never-stopped one would.
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

// AppendState appends the accumulator's exact state to dst in the
// layout every state codec shares: N as an i64, then Mean, M2, Sum, Min
// and Max as raw float64 bits.
func (a *Accumulator) AppendState(dst []byte) []byte {
	dst = binenc.AppendI64(dst, int64(a.n))
	dst = binenc.AppendF64(dst, a.mean)
	dst = binenc.AppendF64(dst, a.m2)
	dst = binenc.AppendF64(dst, a.sum)
	dst = binenc.AppendF64(dst, a.min)
	return binenc.AppendF64(dst, a.max)
}

// ReadAccumulatorState reads the six fields AppendState wrote.
func ReadAccumulatorState(r *binenc.Reader) AccumulatorState {
	return AccumulatorState{N: int(r.I64()), Mean: r.F64(), M2: r.F64(), Sum: r.F64(), Min: r.F64(), Max: r.F64()}
}

// Run is a run of observations reduced for one Merge into an
// Accumulator — Chan, Golub and LeVeque's pairwise combination, in a
// division-free pass. Each value x enters as d = (x − shift)·scale,
// summed as Σd and Σd², where shift is the accumulator's running mean
// (the run's first value when the accumulator is empty) and scale is a
// power of two small enough that Σd² stays finite wherever the merged
// M2 does. Min and Max widen value by value, exactly as Add widens
// them. The zero Run is empty; Accumulator.Run starts one.
type Run struct {
	n      int
	fresh  bool    // the accumulator holds nothing: the first value is the shift
	shift  float64 // the accumulator's mean, or the run's first value
	scale  float64 // 2^-k with 4^k > 2n+1 for the expected length n
	s1, s2 float64 // Σd and Σd² of d = (x − shift)·scale
	lo, hi float64
	last   float64 // the latest value, which a one-value run merges as Add
}

// Run starts a run for the next observations of a, about n of them.
// n only sizes the scale: a run of any length merges correctly, and up
// to n of them it cannot overflow where a's own M2 would not.
func (a *Accumulator) Run(n int) Run {
	k := (bits.Len(uint(2*n+1)) + 1) / 2
	scale := math.Float64frombits(uint64(1023-k) << 52) // 2^-k
	return Run{fresh: a.n == 0, shift: a.mean, scale: scale, lo: a.min, hi: a.max}
}

// FoldPairs folds the values xs[i]·m into the run and writes the sum of
// each consecutive pair, xs[2i+1] + xs[2i], to pairs[i]; pairs may
// alias xs, and an odd last value is folded but not paired. A dyadic
// caller folds one level and forms the next level's block sums in the
// same pass. With m = 1 the values fold as they are, down to the bits
// of the Min, Max and one-value merge they may become.
func (r *Run) FoldPairs(xs []float64, m float64, pairs []float64) {
	if len(xs) == 0 {
		return
	}
	first, last := xs[0], xs[len(xs)-1]
	if m != 1 {
		first, last = first*m, last*m
	}
	if r.fresh && r.n == 0 {
		r.shift, r.lo, r.hi = first, first, first
	}
	c, s := r.shift, r.scale
	var s1a, s1b, s2a, s2b float64
	inside := r.inside()
	pairs = pairs[:len(xs)/2]
	for i := 1; i < len(xs); i += 2 {
		xa, xb := xs[i-1], xs[i]
		pairs[i>>1] = xb + xa
		a, b := xa*m, xb*m
		da, db := (a-c)*s, (b-c)*s
		qa, qb := da*da, db*db
		// Both values inside the range is the common case, and then
		// Extend is a no-op; the squared deviations already tell, at
		// one compare each. Anything else, NaN included, widens
		// exactly. The range stays in r, so the rare widening costs the
		// common case no register shuffles.
		if !(qa < inside && qb < inside) {
			r.lo, r.hi = Extend(r.lo, r.hi, a)
			r.lo, r.hi = Extend(r.lo, r.hi, b)
			inside = r.inside()
		}
		s1a += da
		s1b += db
		s2a += qa
		s2b += qb
	}
	if len(xs)&1 == 1 {
		r.lo, r.hi = Extend(r.lo, r.hi, last)
		d := (last - c) * s
		s1a += d
		s2a += d * d
	}
	r.n += len(xs)
	r.last = last
	r.s1 += s1a + s1b
	r.s2 += s2a + s2b
}

// inside bounds the squared scaled deviations of values that lie
// within [lo, hi]: with R the shift's distance to the nearer end,
// rounding is monotone, so fl(fl(x − shift)·scale)² < fl(fl(R·scale)²)
// implies lo ≤ x ≤ hi. A NaN or an empty range gives 0, which no
// square is below.
func (r *Run) inside() float64 {
	rad := min(r.hi-r.shift, r.shift-r.lo)
	if !(rad > 0) {
		return 0
	}
	rs := rad * r.scale
	return rs * rs
}

// Merge folds a run started on a into a in one step. With d = x − mean
// over the run's values and n the merged count, mean' = mean + Σd/n and
// M2' = M2 + Σd² − (Σd)²/n: Chan et al.'s pairwise combination, whose
// cross term δ²·n_a·n_run/n is folded into the run's own Σd² by
// shifting with a's mean. A run of one value is Add, bit for bit; a
// longer one agrees with one Add per value within FoldTolerance (see
// CompareFolded), and Min and Max exactly.
func (a *Accumulator) Merge(r *Run) {
	switch r.n {
	case 0:
		return
	case 1:
		a.Add(r.last)
		return
	}
	inv := 1 / r.scale
	n := a.n + r.n
	s1 := r.s1 * inv // Σ(x − shift)
	// Rounding can take a run of equal values a hair below zero; M2
	// never decreases, as under Add.
	a.m2 += max((r.s2-r.s1*(r.s1/float64(n)))*inv*inv, 0)
	a.mean = r.shift + s1/float64(n)
	a.sum += float64(r.n)*r.shift + s1
	a.n, a.min, a.max = n, r.lo, r.hi
}

// FoldTolerance bounds how far an accumulator fed by Merge may stray
// from one fed the same values by Add, relative to the magnitude of
// the data: for n values in [Min, Max] with A = max(|Min|, |Max|),
// Mean within FoldTolerance·A, Sum within FoldTolerance·n·A and M2
// within FoldTolerance·n·(Max−Min)·A, each plus n·2^-1000 for values
// so small that their squares underflow. The (Max−Min)·A scale is the
// conditioning of the variance: a deviation d from a mean of size A
// carries a rounding error of order ε·A, so each squared deviation is
// uncertain by ε·|d|·A in either arithmetic.
const FoldTolerance = 0x1p-32

// CompareFolded checks got, an accumulator fed by Merge, against ref,
// one fed the same values by Add: N, Min and Max must be identical (a
// NaN matching any NaN), and wherever ref's Mean, M2 and Sum are all
// finite, got's must be finite too and within FoldTolerance.
func CompareFolded(ref, got AccumulatorState) error {
	if got.N != ref.N || !sameFloat(got.Min, ref.Min) || !sameFloat(got.Max, ref.Max) {
		return fmt.Errorf("stats: folded n=%d min=%g max=%g, want n=%d min=%g max=%g",
			got.N, got.Min, got.Max, ref.N, ref.Min, ref.Max)
	}
	if !isFinite(ref.Mean) || !isFinite(ref.M2) || !isFinite(ref.Sum) {
		return nil
	}
	n := float64(ref.N)
	a := max(math.Abs(ref.Min), math.Abs(ref.Max))
	floor := n * 0x1p-1000
	for _, f := range []struct {
		name      string
		ref, got  float64
		magnitude float64
	}{
		{"mean", ref.Mean, got.Mean, a},
		{"sum", ref.Sum, got.Sum, n * a},
		{"m2", ref.M2, got.M2, n * (ref.Max - ref.Min) * a},
	} {
		if !isFinite(f.got) || !(math.Abs(f.got-f.ref) <= FoldTolerance*f.magnitude+floor) {
			return fmt.Errorf("stats: folded %s %g, want %g within %g", f.name, f.got, f.ref, FoldTolerance*f.magnitude+floor)
		}
	}
	return nil
}

// sameFloat reports whether a and b are the same value: identical bits,
// or both NaN, whose payload depends on the compiled operand order.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
