package stats

import (
	"bytes"
	"encoding/binary"
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
			almostEqual(acc.min, lo, 0) &&
			almostEqual(acc.max, hi, 0) &&
			almostEqual(acc.sum, Sum(x), 1e-7)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAccumulatorZeroValue(t *testing.T) {
	var acc Accumulator
	if acc.N() != 0 || !math.IsNaN(acc.Mean()) || !math.IsNaN(acc.Variance()) {
		t.Error("zero-value accumulator should report NaN statistics")
	}
	acc.Add(5)
	if acc.Mean() != 5 || acc.Variance() != 0 || acc.min != 5 || acc.max != 5 {
		t.Error("single-observation accumulator incorrect")
	}
}

// addEach feeds xs to a one Add per value: the reference every folded
// form is held to.
func addEach(a *Accumulator, xs []float64) {
	for _, v := range xs {
		a.Add(v)
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
		addEach(&whole, x)
		addEach(&left, x[:20])
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
	addEach(&ref, x)
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
			addEach(&added, start)
			addEach(&merged, start)
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
	if a.min != 0.5 || a.max != 8 || a.sum != 15.5 || a.Mean() != 3.1 {
		t.Errorf("scaled fold: min %g max %g sum %g mean %g", a.min, a.max, a.sum, a.Mean())
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
	addEach(&ref, x)
	foldRun(&folded, x)
	if err := CompareFolded(ref.State(), folded.State()); err != nil {
		t.Fatal(err)
	}
}

// addSpecials are the values FuzzAddAllPartition draws with a selector
// byte below len(addSpecials).
var addSpecials = []float64{
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1030, -0x1p-1030, 0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1), math.NaN(), 1e153,
	-1e153, 1e6, 1e6 + 0.5, 1,
}

// fuzzValues decodes a value series: a selector byte picks a special
// value (below 16), a small multiple of 1/8 (below 128, from the next
// byte) or the raw bits of the next 8 bytes.
func fuzzValues(data []byte) []float64 {
	var out []float64
	for len(data) > 0 {
		sel := data[0]
		data = data[1:]
		switch {
		case int(sel) < len(addSpecials):
			out = append(out, addSpecials[sel])
		case sel < 128 && len(data) >= 1:
			out = append(out, float64(int8(data[0]))/8)
			data = data[1:]
		case len(data) >= 8:
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		default:
			return out
		}
	}
	return out
}

// FuzzAddAllPartition feeds arbitrary values, ±MaxFloat64, subnormals,
// ±0, infinities and NaN among them, to an accumulator one Add per
// value and to AddAll in an arbitrary partition, across its 1024-value
// chunk included. The folded moments must stay within the fold
// tolerance of the added ones (CompareFolded), the same partition must
// give the same bytes, and one-value AddAlls must be Add bit for bit
// (a NaN matching any NaN: its payload depends on the compiled operand
// order of each inlined Add).
func FuzzAddAllPartition(f *testing.F) {
	f.Add([]byte{15, 16, 3, 20, 250, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 8, 9, 10, 7, 6, 40, 9}, []byte{3, 0, 1, 7})
	f.Add([]byte{11, 11, 11, 12, 7, 7, 6, 6, 4, 5, 13, 14, 13, 14, 13}, []byte{2, 2, 0, 5, 1})
	long := make([]byte, 0, 2*3000)
	for i := 0; i < 3000; i++ {
		long = append(long, 16+byte(i%7), byte(i*37))
	}
	f.Add(long, []byte{255, 17, 200, 1})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		values := fuzzValues(data)
		var added, single, folded, twin Accumulator
		addEach(&added, values)
		for _, v := range values {
			single.AddAll([]float64{v})
		}
		for rest := values; len(rest) > 0; {
			size := len(rest)
			if len(cuts) > 0 {
				// Sizes up to 199 values, or multiples of 64 across the
				// 1024-value chunk.
				size = int(cuts[0])
				if size >= 200 {
					size = (size - 199) * 64
				}
				size = min(size, len(rest))
				cuts = cuts[1:]
			}
			folded.AddAll(rest[:size])
			twin.AddAll(rest[:size])
			rest = rest[size:]
		}
		if err := CompareFolded(added.State(), folded.State()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(folded.AppendState(nil), twin.AppendState(nil)) {
			t.Fatal("the same partition gave different bytes")
		}
		if a, b := single.State(), added.State(); a.N != b.N || !sameFloat(a.Mean, b.Mean) || !sameFloat(a.M2, b.M2) ||
			!sameFloat(a.Sum, b.Sum) || !sameFloat(a.Min, b.Min) || !sameFloat(a.Max, b.Max) {
			t.Fatalf("one-value AddAlls %+v, Add %+v", a, b)
		}
	})
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
