package lrd

import (
	"bytes"
	"math"
	"math/bits"
	"runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/dsp"
)

func fgnSeries(t testing.TB, h float64, n int, seed uint64) []float64 {
	t.Helper()
	gen, err := NewFGN(h, n, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return gen.Generate(dist.NewRand(seed))
}

// The streaming ladder and the batch estimator share one core, so on a
// complete series with the default level window they must agree exactly
// (same blocks, same variances, same regression).
func TestStreamAggVarMatchesBatchExactly(t *testing.T) {
	for _, h := range []float64{0.6, 0.75, 0.9} {
		x := fgnSeries(t, h, 1<<14, uint64(h*1e4))
		var s StreamAggVar
		for _, v := range x {
			s.Tick(v)
		}
		got, err := s.Estimate()
		if err != nil {
			t.Fatalf("H=%g: stream estimate: %v", h, err)
		}
		want, err := HurstAggVar(x, 1, 0)
		if err != nil {
			t.Fatalf("H=%g: batch estimate: %v", h, err)
		}
		if math.Abs(got.H-want.H) > 1e-9 {
			t.Errorf("H=%g: stream %.6f vs batch %.6f", h, got.H, want.H)
		}
		if got.Fit.N != want.Fit.N {
			t.Errorf("H=%g: stream used %d levels, batch %d", h, got.Fit.N, want.Fit.N)
		}
	}
}

// Aggregation-level bookkeeping: after n ticks level j must have seen
// floor(n / 2^j) completed blocks, and the block means must preserve
// the series mean.
func TestStreamAggVarLevelCounts(t *testing.T) {
	const n = 1000
	var s StreamAggVar
	for i := 0; i < n; i++ {
		s.Tick(float64(i))
	}
	if s.N() != n {
		t.Fatalf("N = %d, want %d", s.N(), n)
	}
	for j, m := 0, 1; m <= n; j, m = j+1, m*2 {
		if got, want := s.levels[j].acc.N(), n/m; got != want {
			t.Errorf("level %d (m=%d): %d blocks, want %d", j, m, got, want)
		}
	}
	// Means of complete dyadic blocks of 0..n-1: level 3 blocks of 8
	// have means 3.5, 11.5, ... -> overall mean of the first 125 blocks.
	if got := s.levels[3].acc.Mean(); math.Abs(got-499.5) > 1e-9 {
		t.Errorf("level-3 block mean = %g, want 499.5", got)
	}
}

// The streaming Haar cascade must reproduce the batch pyramid's octave
// energies when the batch transform uses the same (Haar) wavelet on a
// power-of-two series.
func TestStreamWaveletMatchesBatchHaar(t *testing.T) {
	x := fgnSeries(t, 0.8, 1<<13, 99)
	var s StreamWavelet
	for _, v := range x {
		s.Tick(v)
	}
	got, err := s.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := HurstWavelet(x, WaveletOptions{Wavelet: dsp.Haar()})
	if err != nil {
		t.Fatal(err)
	}
	// The dsp pyramid and the cascade may window octave boundaries
	// slightly differently; the estimates must still be nearly the same
	// estimator.
	if math.Abs(got.H-want.H) > 0.02 {
		t.Errorf("stream Haar %.4f vs batch Haar %.4f", got.H, want.H)
	}
}

func TestStreamWaveletRecoversH(t *testing.T) {
	for _, h := range []float64{0.6, 0.75, 0.9} {
		x := fgnSeries(t, h, 1<<15, uint64(h*2e4))
		var s StreamWavelet
		for _, v := range x {
			s.Tick(v)
		}
		e, err := s.Estimate()
		if err != nil {
			t.Fatalf("H=%g: %v", h, err)
		}
		if math.Abs(e.H-h) > 0.12 {
			t.Errorf("H=%g: streaming wavelet estimated %.3f", h, e.H)
		}
	}
}

func TestStreamRSWindow(t *testing.T) {
	s := NewStreamRS()
	if _, err := s.Estimate(); err == nil {
		t.Error("expected error before the window has 128 ticks")
	}
	x := fgnSeries(t, 0.75, 3*rsWindow+5, 7)
	for _, v := range x {
		s.Tick(v)
	}
	if s.N() != int64(len(x)) {
		t.Fatalf("N = %d, want %d", s.N(), len(x))
	}
	got, err := s.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	// The window holds exactly the last rsWindow ticks in arrival order.
	want, err := HurstRS(x[len(x)-rsWindow:])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.H-want.H) > 1e-12 {
		t.Errorf("windowed %.6f vs batch-on-tail %.6f", got.H, want.H)
	}
}

// mallocs returns exactly how many heap allocations f makes.
// testing.AllocsPerRun divides its count by the number of runs and
// rounds down, so it reports 0 for an allocation made once every few
// calls — the growth pattern of a ladder.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// feedMixed feeds values through TickBatch in a cycle of batch sizes,
// with one-tick batches going through Tick.
func feedMixed(l batchTicker, values []float64) {
	sizes := [...]int{1, 3, 511, 512, 8192}
	for i := 0; len(values) > 0; i++ {
		k := min(sizes[i%len(sizes)], len(values))
		if k == 1 {
			l.Tick(values[0])
		} else {
			l.TickBatch(values[:k])
		}
		values = values[k:]
	}
}

// TestStreamTickDoesNotAllocate pins the tick path's allocations
// exactly — the estimators sit inside Engine.OfferBatch at tens of
// millions of ticks per second. A warm ladder allocates nothing
// between power-of-two boundaries; a fresh one allocates at most once
// per level it reaches, bits.Len64(n) over n ticks, in any mix of Tick
// and TickBatch; the R/S ring never allocates. A ladder restored just
// below a boundary and fed across it writes the bytes of a twin that
// never moved.
func TestStreamTickDoesNotAllocate(t *testing.T) {
	const total = 1 << 20
	f := stateTrace(total)
	kinds := []struct {
		name   string
		make   func() batchTicker
		growth uint64 // allocation ceiling over total fresh ticks
	}{
		{"aggvar", func() batchTicker { return &StreamAggVar{} }, uint64(bits.Len64(total))},
		{"wavelet", func() batchTicker { return &StreamWavelet{} }, uint64(bits.Len64(total))},
		{"rs", func() batchTicker { return NewStreamRS() }, 0},
	}
	for _, k := range kinds {
		warm := k.make()
		warm.TickBatch(f[:1<<17+1])
		if got := mallocs(func() {
			for _, v := range f[:1000] {
				warm.Tick(v)
			}
			feedMixed(warm, f[:1<<16])
		}); got != 0 {
			t.Errorf("%s: %d allocations between 2^17 and 2^18 ticks, want 0", k.name, got)
		}

		fresh := k.make()
		if got := mallocs(func() { feedMixed(fresh, f) }); got > k.growth {
			t.Errorf("%s: %d allocations over a fresh ladder's first %d ticks, want <= %d", k.name, got, total, k.growth)
		}

		const cut = 1<<12 - 3
		live := k.make()
		live.TickBatch(f[:cut])
		moved := k.make()
		if err := moved.RestoreState(live.AppendState(nil)); err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		for off := cut; off < 1<<13+5; off += 2 {
			live.TickBatch(f[off : off+2])
			moved.TickBatch(f[off : off+2])
			if !bytes.Equal(live.AppendState(nil), moved.AppendState(nil)) {
				t.Fatalf("%s: restored ladder diverges from its twin at %d ticks", k.name, off+2)
			}
		}
	}
}

func BenchmarkStreamAggVarTick(b *testing.B) {
	x := fgnSeries(b, 0.8, 1<<16, 3)
	var s StreamAggVar
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Tick(x[i&(1<<16-1)])
	}
}

func BenchmarkStreamWaveletTick(b *testing.B) {
	x := fgnSeries(b, 0.8, 1<<16, 3)
	var s StreamWavelet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Tick(x[i&(1<<16-1)])
	}
}
