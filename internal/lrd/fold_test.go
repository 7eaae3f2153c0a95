package lrd

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// foldSpecials are the values FuzzTickBatchPartition draws with a
// selector byte below len(foldSpecials).
var foldSpecials = []float64{
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1030, -0x1p-1030, 0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1), math.NaN(), 1e153,
	-1e153, 1e6, 1e6 + 0.5, 1,
}

// fuzzTicks decodes a tick series: a selector byte picks a special
// value (below 16), a small multiple of 1/8 (below 128, from the next
// byte) or the raw bits of the next 8 bytes.
func fuzzTicks(data []byte) []float64 {
	var out []float64
	for len(data) > 0 {
		sel := data[0]
		data = data[1:]
		switch {
		case int(sel) < len(foldSpecials):
			out = append(out, foldSpecials[sel])
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

// FuzzTickBatchPartition feeds arbitrary ticks, ±MaxFloat64,
// subnormals, ±0, infinities and NaN among them, to a Tick-fed ladder
// and to a TickBatch-fed one in an arbitrary batch partition. Nothing
// may panic; the batched ladder must keep the exact structure and
// moments within the fold tolerance, never non-finite where the
// Tick-fed moments are finite (CompareFoldedStates); and batches of
// one tick must give the Tick-fed bytes.
func FuzzTickBatchPartition(f *testing.F) {
	f.Add([]byte{15, 16, 3, 20, 250, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 8, 9, 10, 7, 6, 40, 9}, []byte{3, 0, 1, 7})
	f.Add([]byte{11, 11, 11, 12, 7, 7, 6, 6, 4, 5, 13, 14, 13, 14, 13}, []byte{2, 2, 0, 5, 1})
	long := make([]byte, 0, 2*3000)
	for i := 0; i < 3000; i++ {
		long = append(long, 16+byte(i%7), byte(i*37))
	}
	f.Add(long, []byte{255, 17, 200, 1})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		ticks := fuzzTicks(data)
		var ticked, batched, single StreamAggVar
		for _, v := range ticks {
			ticked.Tick(v)
			single.TickBatch([]float64{v})
		}
		for rest := ticks; len(rest) > 0; {
			size := len(rest)
			if len(cuts) > 0 {
				// Sizes up to 255 ticks, or multiples of 64 across the
				// fold's chunk boundary.
				size = int(cuts[0])
				if size >= 200 {
					size = (size - 199) * 64
				}
				size = min(size, len(rest))
				cuts = cuts[1:]
			}
			batched.TickBatch(rest[:size])
			rest = rest[size:]
		}
		want := ticked.AppendState(nil)
		if err := CompareFoldedStates(want, batched.AppendState(nil)); err != nil {
			t.Fatal(err)
		}
		got := single.AppendState(nil)
		if err := CompareFoldedStates(want, got); err != nil {
			t.Fatalf("one-tick batches: %v", err)
		}
		hasNaN := false
		for _, v := range ticks {
			hasNaN = hasNaN || math.IsNaN(v)
		}
		if !hasNaN && !bytes.Equal(got, want) {
			t.Fatal("one-tick batches diverge from Tick")
		}
	})
}

// neumaier is a compensated running sum, accurate to a few ulps of
// the result whatever the count.
type neumaier struct{ sum, c float64 }

func (k *neumaier) add(x float64) {
	t := k.sum + x
	if math.Abs(k.sum) >= math.Abs(x) {
		k.c += (k.sum - t) + x
	} else {
		k.c += (x - t) + k.sum
	}
	k.sum = t
}

func (k *neumaier) value() float64 { return k.sum + k.c }

// twoPassVariance is the population variance of x by compensated two
// passes: the reference the ladders' running moments are held to.
func twoPassVariance(x []float64) float64 {
	var s neumaier
	for _, v := range x {
		s.add(v)
	}
	m := s.value() / float64(len(x))
	var q neumaier
	for _, v := range x {
		d := v - m
		q.add(d * d)
	}
	return q.value() / float64(len(x))
}

// TestFoldedVarianceAccuracy: far from zero (offset 1e6, σ = 1) the
// level variances TickBatch merges must be no less accurate than the
// ones Tick's Welford steps reach, level by level, against a
// compensated two-pass reference over the same block means. Both
// arithmetics keep the running mean as one float64, and a mean off by
// one ulp moves M2 by up to ulp·Σ|x − mean|; below that floor, where
// the runs of the upper levels hold a few blocks per batch, neither
// result is more accurate than the other, so the floor also passes.
func TestFoldedVarianceAccuracy(t *testing.T) {
	const n, batch, offset = 1 << 20, 8192, 1e6
	x := fgnSeries(t, 0.8, n, 7)
	for i := range x {
		x[i] += offset
	}
	var ticked, batched StreamAggVar
	for _, v := range x {
		ticked.Tick(v)
	}
	for off := 0; off < n; off += batch {
		batched.TickBatch(x[off : off+batch])
	}
	// Level j's values are the block sums Tick forms, pairwise in its
	// operand order, over 2^j.
	sums := append([]float64(nil), x...)
	for j := 0; len(sums) >= 2; j++ {
		means := make([]float64, len(sums))
		var total neumaier
		for i, s := range sums {
			means[i] = s / float64(int64(1)<<j)
			total.add(means[i])
		}
		mean := total.value() / float64(len(means))
		var spread neumaier
		for _, v := range means {
			spread.add(math.Abs(v - mean))
		}
		ref := twoPassVariance(means)
		floor := (math.Nextafter(mean, math.Inf(1)) - mean) * spread.value() / (ref * float64(len(means)))
		welford := ticked.levels[j].acc.Variance()
		folded := batched.levels[j].acc.Variance()
		errW, errF := math.Abs(welford-ref)/ref, math.Abs(folded-ref)/ref
		t.Logf("level %2d: %7d blocks, relative error Welford %.2e, folded %.2e (one-ulp-mean floor %.2e)", j, len(means), errW, errF, floor)
		if errF > errW && errF > floor {
			t.Errorf("level %d: folded variance error %.3g exceeds Welford's %.3g and the floor %.3g", j, errF, errW, floor)
		}
		next := make([]float64, len(sums)/2)
		for i := range next {
			next[i] = sums[2*i+1] + sums[2*i]
		}
		sums = next
	}
}
