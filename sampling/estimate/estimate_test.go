package estimate_test

import (
	"bytes"
	"errors"
	"math"
	"math/bits"
	"runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/lrd"
	"repro/sampling/estimate"
)

func fgnSeries(t testing.TB, h float64, n int, seed uint64) []float64 {
	t.Helper()
	gen, err := lrd.NewFGN(h, n, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return gen.Generate(dist.NewRand(seed))
}

func feed(e estimate.Estimator, x []float64) {
	for _, v := range x {
		e.Tick(v)
	}
}

func TestNewKnownAndUnknownMethods(t *testing.T) {
	for _, m := range estimate.Methods() {
		e, err := estimate.New(m)
		if err != nil {
			t.Fatalf("New(%q): %v", m, err)
		}
		if e.Method() != m {
			t.Errorf("New(%q).Method() = %q", m, e.Method())
		}
	}
	if _, err := estimate.New("nope"); !errors.Is(err, estimate.ErrUnknownMethod) {
		t.Errorf("New(nope) error = %v, want ErrUnknownMethod", err)
	}
}

// The acceptance property: on synthetic fGn of known H, the streaming
// AggVar and wavelet estimates land within 0.05 of the batch estimators
// run on the very same series.
func TestStreamingAgreesWithBatchOnFGN(t *testing.T) {
	const n = 1 << 15
	for _, h := range []float64{0.6, 0.75, 0.9} {
		x := fgnSeries(t, h, n, uint64(h*1e4))

		agg, _ := estimate.New(estimate.AggVar)
		feed(agg, x)
		got := agg.Estimate()
		if !got.OK {
			t.Fatalf("H=%g: aggvar produced no estimate", h)
		}
		batch, err := lrd.HurstAggVar(x, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(got.H - batch.H); d > 0.05 {
			t.Errorf("H=%g aggvar: streaming %.4f vs batch %.4f (|d|=%.4f)", h, got.H, batch.H, d)
		}

		wav, _ := estimate.New(estimate.Wavelet)
		feed(wav, x)
		got = wav.Estimate()
		if !got.OK {
			t.Fatalf("H=%g: wavelet produced no estimate", h)
		}
		wbatch, err := lrd.HurstWavelet(x, lrd.WaveletOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(got.H - wbatch.H); d > 0.05 {
			t.Errorf("H=%g wavelet: streaming %.4f vs batch %.4f (|d|=%.4f)", h, got.H, wbatch.H, d)
		}
	}
}

// Each streaming method must also recover the true H of exact fGn
// within the batch estimators' own tolerances.
func TestStreamingRecoversKnownH(t *testing.T) {
	const n = 1 << 15
	for _, h := range []float64{0.6, 0.75, 0.9} {
		x := fgnSeries(t, h, n, uint64(h*3e4))
		for _, m := range estimate.Methods() {
			e, err := estimate.New(m)
			if err != nil {
				t.Fatal(err)
			}
			feed(e, x)
			got := e.Estimate()
			if !got.OK {
				t.Errorf("H=%g %s: no estimate after %d ticks", h, m, n)
				continue
			}
			if math.Abs(got.H-h) > 0.15 {
				t.Errorf("H=%g %s: estimated %.3f", h, m, got.H)
			}
			if math.Abs(got.Beta-(2-2*got.H)) > 1e-9 {
				t.Errorf("%s: Beta %.4f inconsistent with H %.4f", m, got.Beta, got.H)
			}
			if got.Ticks != int64(n) {
				t.Errorf("%s: Ticks = %d, want %d", m, got.Ticks, n)
			}
		}
	}
}

// Before enough stream has arrived the estimators report "no estimate
// yet" (NaN H, OK false) rather than an error or a garbage number.
func TestEstimateBeforeWarmup(t *testing.T) {
	for _, m := range estimate.Methods() {
		e, err := estimate.New(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			e.Tick(float64(i))
		}
		got := e.Estimate()
		if got.OK || !math.IsNaN(got.H) || !math.IsNaN(got.Beta) {
			t.Errorf("%s after 10 ticks: OK=%v H=%v, want not-yet", m, got.OK, got.H)
		}
		if got.Ticks != 10 {
			t.Errorf("%s: Ticks = %d, want 10", m, got.Ticks)
		}
	}
}

// mallocs returns exactly how many heap allocations f makes;
// testing.AllocsPerRun's per-run average rounds an allocation made once
// every few calls down to 0.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// feedMixed feeds x in a cycle of batch sizes, one-tick batches
// through Tick and the rest through TickBatch.
func feedMixed(e estimate.Estimator, x []float64) {
	sizes := [...]int{1, 3, 511, 512, 8192}
	for i := 0; len(x) > 0; i++ {
		k := min(sizes[i%len(sizes)], len(x))
		if k == 1 {
			e.Tick(x[0])
		} else {
			e.TickBatch(x[:k])
		}
		x = x[k:]
	}
}

// The tick path's allocation bound, counted exactly. A warm estimator
// allocates nothing between power-of-two boundaries. A fresh one
// allocates at most once per ladder level it reaches — bits.Len64(n)
// over n ticks — in any mix of Tick and TickBatch calls, and the R/S
// ring never does. An estimator restored just below a boundary and fed
// across it writes the bytes of a twin that never moved.
func TestTickPathDoesNotAllocate(t *testing.T) {
	const total = 1 << 20
	x := fgnSeries(t, 0.8, total, 3)
	for _, m := range estimate.Methods() {
		warm, err := estimate.New(m)
		if err != nil {
			t.Fatal(err)
		}
		warm.TickBatch(x[:1<<17+1])
		if got := mallocs(func() {
			for _, v := range x[:1000] {
				warm.Tick(v)
			}
			feedMixed(warm, x[:1<<16])
		}); got != 0 {
			t.Errorf("%s: %d allocations between 2^17 and 2^18 ticks, want 0", m, got)
		}

		fresh, _ := estimate.New(m)
		growth := uint64(bits.Len64(total))
		if m == estimate.RS {
			growth = 0
		}
		if got := mallocs(func() { feedMixed(fresh, x) }); got > growth {
			t.Errorf("%s: %d allocations over a fresh estimator's first %d ticks, want <= %d", m, got, total, growth)
		}

		const cut = 1<<12 - 3
		live, _ := estimate.New(m)
		live.TickBatch(x[:cut])
		moved, _ := estimate.New(m)
		if err := moved.RestoreState(live.AppendState(nil)); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		for off := cut; off < 1<<13+5; off += 2 {
			live.TickBatch(x[off : off+2])
			moved.TickBatch(x[off : off+2])
			a := live.AppendState(nil)
			b := moved.AppendState(nil)
			if !bytes.Equal(a, b) {
				t.Fatalf("%s: restored estimator diverges from its twin at %d ticks", m, off+2)
			}
		}
	}
}

// FuzzEstimatorTick is the CI fuzz smoke for the tick path: arbitrary
// (including pathological) tick values must never panic an estimator or
// make Estimate misbehave structurally, and a TickBatch-fed twin must
// end in the byte-identical state — for aggvar, whose batches merge
// their moments, in the state lrd.CompareFoldedStates accepts.
func FuzzEstimatorTick(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, uint8(200))
	f.Add(0.0, 0.0, 0.0, uint8(255))
	f.Add(math.MaxFloat64, -math.MaxFloat64, 1e-300, uint8(130))
	f.Add(math.Inf(1), math.NaN(), -1.5, uint8(3))
	f.Fuzz(func(t *testing.T, a, b, c float64, n uint8) {
		ests := make([]estimate.Estimator, 0, 3)
		for _, m := range estimate.Methods() {
			e, err := estimate.New(m)
			if err != nil {
				t.Fatal(err)
			}
			ests = append(ests, e)
		}
		vals := [3]float64{a, b, c}
		series := make([]float64, n)
		for i := range series {
			series[i] = vals[i%3]
			for _, e := range ests {
				e.Tick(series[i])
			}
		}
		for _, e := range ests {
			twin, err := estimate.New(e.Method())
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(series); off += 37 {
				twin.TickBatch(series[off:min(off+37, len(series))])
			}
			// A NaN input can leave NaN payloads that depend on the
			// compiled operand order, so those runs compare estimates.
			want := e.AppendState(nil)
			if e.Method() == estimate.AggVar {
				if err := lrd.CompareFoldedStates(want, twin.AppendState(nil)); err != nil {
					t.Fatalf("aggvar: TickBatch state diverges from Tick: %v", err)
				}
			} else if got := twin.AppendState(nil); !bytes.Equal(got, want) &&
				!(math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c)) {
				t.Fatalf("%s: TickBatch state diverges from Tick", e.Method())
			}
			if got, want := twin.Estimate(), e.Estimate(); got.OK != want.OK || got.Levels != want.Levels || got.Ticks != want.Ticks {
				t.Fatalf("%s: TickBatch estimate %+v, Tick estimate %+v", e.Method(), got, want)
			}
			got := e.Estimate()
			if got.Ticks != int64(n) {
				t.Fatalf("%s: Ticks = %d, want %d", e.Method(), got.Ticks, n)
			}
			if got.OK && math.IsNaN(got.H) {
				t.Fatalf("%s: OK estimate with NaN H", e.Method())
			}
		}
	})
}

// BenchmarkEstimatorTickBatch is the batch form of BenchmarkEstimatorTick
// and also CI-gated: 8192-tick batches, the serving benchmark's group
// frame; ns/op is per tick.
func BenchmarkEstimatorTickBatch(b *testing.B) {
	const batch = 8192
	x := fgnSeries(b, 0.8, 1<<16, 9)
	for _, m := range estimate.Methods() {
		b.Run(string(m), func(b *testing.B) {
			e, err := estimate.New(m)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				off := i & (1<<16 - 1)
				e.TickBatch(x[off : off+min(batch, b.N-i)])
			}
		})
	}
}

// BenchmarkEstimatorTick is the hot-path benchmark the CI regression
// gate watches: one tick through each estimator, allocation-counted.
func BenchmarkEstimatorTick(b *testing.B) {
	x := fgnSeries(b, 0.8, 1<<16, 9)
	for _, m := range estimate.Methods() {
		b.Run(string(m), func(b *testing.B) {
			e, err := estimate.New(m)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Tick(x[i&(1<<16-1)])
			}
		})
	}
}
