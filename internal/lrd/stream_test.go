package lrd

import (
	"math"
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
		if got, want := s.accs[j].N(), n/m; got != want {
			t.Errorf("level %d (m=%d): %d blocks, want %d", j, m, got, want)
		}
	}
	// Means of complete dyadic blocks of 0..n-1: level 3 blocks of 8
	// have means 3.5, 11.5, ... -> overall mean of the first 125 blocks.
	if got := s.accs[3].Mean(); math.Abs(got-499.5) > 1e-9 {
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
	s := NewStreamRS(256)
	if _, err := s.Estimate(); err == nil {
		t.Error("expected error before the window has 128 ticks")
	}
	x := fgnSeries(t, 0.75, 4096, 7)
	for _, v := range x {
		s.Tick(v)
	}
	if s.N() != 4096 {
		t.Fatalf("N = %d, want 4096", s.N())
	}
	got, err := s.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	// The window holds exactly the last 256 ticks in arrival order.
	want, err := HurstRS(x[len(x)-256:])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.H-want.H) > 1e-12 {
		t.Errorf("windowed %.6f vs batch-on-tail %.6f", got.H, want.H)
	}
}

func TestNewStreamRSClamps(t *testing.T) {
	if got := len(NewStreamRS(0).window); got != 4096 {
		t.Errorf("default window = %d, want 4096", got)
	}
	if got := len(NewStreamRS(5).window); got != 256 {
		t.Errorf("clamped window = %d, want 256", got)
	}
}

// The ladder estimators must not allocate on the tick path — they sit
// inside Engine.Offer at tens of millions of ticks per second.
func TestStreamTickDoesNotAllocate(t *testing.T) {
	var agg StreamAggVar
	var wav StreamWavelet
	rs := NewStreamRS(256)
	probe := func(name string, tick func(float64)) {
		t.Helper()
		if allocs := testing.AllocsPerRun(1000, func() { tick(1.5) }); allocs != 0 {
			t.Errorf("%s.Tick allocates %.1f times per call", name, allocs)
		}
	}
	probe("StreamAggVar", agg.Tick)
	probe("StreamWavelet", wav.Tick)
	probe("StreamRS", rs.Tick)
	batch := stateTrace(8193)
	probeBatch := func(name string, tickBatch func([]float64)) {
		t.Helper()
		if allocs := testing.AllocsPerRun(20, func() { tickBatch(batch) }); allocs != 0 {
			t.Errorf("%s.TickBatch allocates %.1f times per call", name, allocs)
		}
	}
	probeBatch("StreamAggVar", agg.TickBatch)
	probeBatch("StreamWavelet", wav.TickBatch)
	probeBatch("StreamRS", rs.TickBatch)
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
