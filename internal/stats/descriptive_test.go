package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestMeanVariance(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %g, want 5", got)
	}
	if got := Variance(x); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %g, want 4", got)
	}
	if got := StdDev(x); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %g, want 2", got)
	}
	if got := SampleVariance(x); !almostEqual(got, 32.0/7, 1e-12) {
		t.Errorf("SampleVariance = %g, want %g", got, 32.0/7)
	}
	if got := Sum(x); !almostEqual(got, 40, 1e-12) {
		t.Errorf("Sum = %g, want 40", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) {
		t.Error("Mean/Variance of empty input should be NaN")
	}
	if !math.IsNaN(SampleVariance([]float64{1})) {
		t.Error("SampleVariance of single point should be NaN")
	}
	lo, hi := MinMax(nil)
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Error("MinMax of empty input should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = (%g, %g), want (-1, 7)", lo, hi)
	}
}

func TestQuantile(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		got, err := Quantile(x, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := Quantile(x, 1.5); err == nil {
		t.Error("expected error for q > 1")
	}
	med, err := Median([]float64{9})
	if err != nil || med != 9 {
		t.Errorf("Median single = %g, %v", med, err)
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	prop := func(seed uint64, szRaw uint8) bool {
		n := int(szRaw%100) + 2
		rng := newRand(seed)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		var acc Accumulator
		acc.AddAll(x)
		lo, hi := MinMax(x)
		return acc.N() == n &&
			almostEqual(acc.Mean(), Mean(x), 1e-9) &&
			almostEqual(acc.Variance(), Variance(x), 1e-7) &&
			almostEqual(acc.SampleVariance(), SampleVariance(x), 1e-7) &&
			almostEqual(acc.Min(), lo, 0) &&
			almostEqual(acc.Max(), hi, 0) &&
			almostEqual(acc.Sum(), Sum(x), 1e-7)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAccumulatorZeroValue(t *testing.T) {
	var acc Accumulator
	if acc.N() != 0 || !math.IsNaN(acc.Mean()) || !math.IsNaN(acc.Variance()) ||
		!math.IsNaN(acc.Min()) || !math.IsNaN(acc.Max()) {
		t.Error("zero-value accumulator should report NaN statistics")
	}
	acc.Add(5)
	if acc.Mean() != 5 || acc.Variance() != 0 || acc.Min() != 5 || acc.Max() != 5 {
		t.Error("single-observation accumulator incorrect")
	}
}

// foldRun merges xs into a as one Run.
func foldRun(a *Accumulator, xs []float64) {
	r := a.Run(len(xs))
	r.FoldPairs(xs, 1, make([]float64, len(xs)/2))
	a.Merge(&r)
}

func TestAccumulatorMerge(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := newRand(seed)
		x := make([]float64, 64)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		var whole, left Accumulator
		whole.AddAll(x)
		left.AddAll(x[:20])
		foldRun(&left, x[20:])
		return CompareFolded(whole.State(), left.State()) == nil &&
			almostEqual(left.Mean(), whole.Mean(), 1e-10) &&
			almostEqual(left.Variance(), whole.Variance(), 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
	// Into an empty accumulator the run's first value is the shift.
	var fresh, ref Accumulator
	x := []float64{1e6 + 0.5, 1e6 - 0.25, 1e6 + 2, 1e6}
	ref.AddAll(x)
	foldRun(&fresh, x)
	if err := CompareFolded(ref.State(), fresh.State()); err != nil {
		t.Error(err)
	}
	// An empty run changes nothing.
	before := fresh.State()
	foldRun(&fresh, nil)
	if fresh.State() != before {
		t.Error("merging an empty run changed the accumulator")
	}
}

// TestMergeOneValueIsAdd: merging a run of one value is Add, bit for
// bit, from any state — empty, ±0, NaN and infinities included.
func TestMergeOneValueIsAdd(t *testing.T) {
	values := []float64{3, -0.0, 0, 1e308, -1e-310, math.Inf(1), math.NaN(), 1e6 + 1}
	for _, start := range [][]float64{nil, {0}, {1, 2, 3}, {1e6, 1e6 + 3}, {-0.0}} {
		for _, v := range values {
			var added, merged Accumulator
			added.AddAll(start)
			merged.AddAll(start)
			added.Add(v)
			foldRun(&merged, []float64{v})
			a, m := added.State(), merged.State()
			if a.N != m.N || !sameBits(a.Mean, m.Mean) || !sameBits(a.M2, m.M2) || !sameBits(a.Sum, m.Sum) ||
				!sameBits(a.Min, m.Min) || !sameBits(a.Max, m.Max) {
				t.Errorf("start %v, value %g: merged %+v, added %+v", start, v, m, a)
			}
		}
	}
}

// TestFoldPairsWritesPairSums: the pair sums add each later value to
// the earlier one, in place as well as into a separate buffer, and an
// odd last value is folded but not paired.
func TestFoldPairsWritesPairSums(t *testing.T) {
	x := []float64{1, 2, 4, 8, 16}
	var a Accumulator
	r := a.Run(len(x))
	inPlace := append([]float64(nil), x...)
	r.FoldPairs(inPlace, 0.5, inPlace)
	if inPlace[0] != 3 || inPlace[1] != 12 || r.n != 5 {
		t.Fatalf("pairs %v, len %d", inPlace[:2], r.n)
	}
	a.Merge(&r)
	if a.Min() != 0.5 || a.Max() != 8 || a.Sum() != 15.5 || a.Mean() != 3.1 {
		t.Errorf("scaled fold: min %g max %g sum %g mean %g", a.Min(), a.Max(), a.Sum(), a.Mean())
	}
}

// TestRunScaleKeepsM2Finite: values whose squared deviations overflow
// while their M2 does not still merge to a finite M2.
func TestRunScaleKeepsM2Finite(t *testing.T) {
	x := make([]float64, 200)
	for i := range x {
		x[i] = 1e153
	}
	var ref, folded Accumulator
	ref.Add(0)
	folded.Add(0)
	ref.AddAll(x)
	foldRun(&folded, x)
	if err := CompareFolded(ref.State(), folded.State()); err != nil {
		t.Fatal(err)
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
