package lrd

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/stats"
)

func TestConversions(t *testing.T) {
	cases := []struct{ h, beta, alpha float64 }{
		{0.9, 0.2, 1.2},
		{0.75, 0.5, 1.5},
		{0.6, 0.8, 1.8},
	}
	for _, c := range cases {
		if got := BetaFromH(c.h); math.Abs(got-c.beta) > 1e-12 {
			t.Errorf("BetaFromH(%g) = %g, want %g", c.h, got, c.beta)
		}
		if got := HFromBeta(c.beta); math.Abs(got-c.h) > 1e-12 {
			t.Errorf("HFromBeta(%g) = %g, want %g", c.beta, got, c.h)
		}
		if got := AlphaFromH(c.h); math.Abs(got-c.alpha) > 1e-12 {
			t.Errorf("AlphaFromH(%g) = %g, want %g", c.h, got, c.alpha)
		}
	}
}

func TestFGNAutocovValues(t *testing.T) {
	// H = 0.5 is white noise: gamma(0)=1, gamma(k)=0 for k >= 1.
	g := FGNAutocov(0.5, 4)
	if math.Abs(g[0]-1) > 1e-12 {
		t.Errorf("gamma(0) = %g, want 1", g[0])
	}
	for k := 1; k <= 4; k++ {
		if math.Abs(g[k]) > 1e-12 {
			t.Errorf("H=0.5 gamma(%d) = %g, want 0", k, g[k])
		}
	}
	// For H > 0.5 covariances are positive and decreasing.
	g = FGNAutocov(0.8, 16)
	for k := 1; k < len(g); k++ {
		if g[k] <= 0 {
			t.Errorf("H=0.8 gamma(%d) = %g, want > 0", k, g[k])
		}
		if g[k] >= g[k-1] {
			t.Errorf("gamma not decreasing at %d: %g >= %g", k, g[k], g[k-1])
		}
	}
	// FGNAutocov fills gamma(k) with FGNACF.At(k), checked here without
	// allocating 2^23 lags. gamma(k) = H(2H-1) k^(2H-2) (1 + O(k^-2)),
	// so past lag 2^10 the asymptote agrees to better than 1e-6; the
	// textbook form is off by 7e-6 at 2^16 and 4e-2 at 2^23.
	for _, h := range []float64{0.6, 0.75, 0.9, 0.95} {
		for k := 1 << 10; k <= 1<<23; k <<= 1 {
			want := h * (2*h - 1) * math.Pow(float64(k), 2*h-2)
			if got := (FGNACF{H: h}).At(k); math.Abs(got-want) > 1e-6*want {
				t.Errorf("H=%g gamma(%d) = %.10g, want %.10g", h, k, got, want)
			}
		}
	}
}

func TestNewFGNValidation(t *testing.T) {
	if _, err := NewFGN(0, 100, 0, 1); err == nil {
		t.Error("expected error for H = 0")
	}
	if _, err := NewFGN(1, 100, 0, 1); err == nil {
		t.Error("expected error for H = 1")
	}
	if _, err := NewFGN(0.7, 1, 0, 1); err == nil {
		t.Error("expected error for n = 1")
	}
	if _, err := NewFGN(0.7, 100, 0, -1); err == nil {
		t.Error("expected error for negative sdev")
	}
	// The smallest (H, n) whose circulant embedding a cancelling
	// autocovariance broke with an eigenvalue below -1e-8.
	if _, err := NewFGN(0.95, 1<<20, 0, 1); err != nil {
		t.Errorf("H = 0.95, n = 2^20: %v", err)
	}
}

func TestFGNMatchesTheoreticalAutocov(t *testing.T) {
	const h = 0.8
	gen, err := NewFGN(h, 1<<14, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := dist.NewRand(123)
	// Average the empirical autocovariance over several paths.
	const paths = 6
	maxLag := 4
	avg := make([]float64, maxLag+1)
	for p := 0; p < paths; p++ {
		x := gen.Generate(rng)
		acv, err := stats.Autocovariance(x, maxLag)
		if err != nil {
			t.Fatal(err)
		}
		for i := range avg {
			avg[i] += acv[i] / paths
		}
	}
	want := FGNAutocov(h, maxLag)
	for k := 0; k <= maxLag; k++ {
		if math.Abs(avg[k]-want[k]) > 0.05 {
			t.Errorf("lag %d: empirical %g vs theoretical %g", k, avg[k], want[k])
		}
	}
}

func TestFGNMeanAndScale(t *testing.T) {
	gen, err := NewFGN(0.7, 1<<13, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := gen.Generate(dist.NewRand(9))
	if len(x) != 1<<13 {
		t.Fatalf("length = %d, want %d", len(x), 1<<13)
	}
	if m := stats.Mean(x); math.Abs(m-10) > 1 {
		t.Errorf("mean = %g, want ~10", m)
	}
	if s := stats.StdDev(x); math.Abs(s-2) > 0.5 {
		t.Errorf("stddev = %g, want ~2", s)
	}
}

func TestPowerLawACF(t *testing.T) {
	r := PowerLawACF{Const: 2, Beta: 0.5}
	if got := r.At(4); math.Abs(got-1) > 1e-12 {
		t.Errorf("R(4) = %g, want 1", got)
	}
	if got := r.At(0); got != 2 {
		t.Errorf("R(0) = %g, want Const", got)
	}
	if got := r.Hurst(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Hurst = %g, want 0.75", got)
	}
}

func TestDeltaNonnegativeForAllBeta(t *testing.T) {
	// The key hypothesis of Theorem 2 (Figure 4): delta_tau >= 0 across
	// the whole LRD range, checked on the exact fGn ACF.
	for _, beta := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		r, err := NewFGNACF(HFromBeta(beta))
		if err != nil {
			t.Fatal(err)
		}
		ds := r.DeltaSeries(200)
		for i, d := range ds {
			if d < 0 {
				t.Errorf("beta=%g: delta_%d = %g < 0", beta, i+1, d)
			}
		}
		// delta is decreasing in tau (convexity flattens out).
		for i := 1; i < len(ds); i++ {
			if ds[i] > ds[i-1]+1e-12 {
				t.Errorf("beta=%g: delta not decreasing at tau=%d", beta, i+1)
			}
		}
	}
	if !math.IsNaN((FGNACF{H: 0.75}).Delta(0)) {
		t.Error("FGNACF.Delta(0) should be NaN")
	}
}

func TestFGNACF(t *testing.T) {
	if _, err := NewFGNACF(0.5); err == nil {
		t.Error("expected error for H = 0.5")
	}
	if _, err := NewFGNACF(1); err == nil {
		t.Error("expected error for H = 1")
	}
	r, err := NewFGNACF(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if r.At(0) != 1 {
		t.Errorf("rho(0) = %g, want 1", r.At(0))
	}
	if r.At(-3) != r.At(3) {
		t.Error("ACF should be symmetric")
	}
	// Asymptotics: rho(k) ~ H(2H-1) k^(2H-2); ratio must approach 1.
	k := 1000
	want := r.H * (2*r.H - 1) * math.Pow(float64(k), 2*r.H-2)
	if got := r.At(k); math.Abs(got/want-1) > 0.01 {
		t.Errorf("rho(%d) = %g, asymptotic %g (ratio %g)", k, got, want, got/want)
	}
	// Matches the textbook definition at the lags where that is accurate
	// (Figure 4 reads up to 200).
	twoH := 2 * r.H
	for i := 1; i <= 200; i++ {
		fi := float64(i)
		def := 0.5 * (math.Pow(fi+1, twoH) - 2*math.Pow(fi, twoH) + math.Pow(fi-1, twoH))
		if got := r.At(i); math.Abs(got/def-1) > 1e-9 {
			t.Errorf("FGNACF.At(%d) = %.15g, definition %.15g", i, got, def)
		}
	}
}

func TestHurstEstimatorsOnFGN(t *testing.T) {
	// Each estimator should recover H within a reasonable tolerance on
	// exact fGn. Wavelet and aggvar are the workhorses of the paper's
	// Figures 2-3 and 21.
	const n = 1 << 15
	for _, h := range []float64{0.6, 0.75, 0.9} {
		gen, err := NewFGN(h, n, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		x := gen.Generate(dist.NewRand(uint64(h * 1e4)))
		type estCase struct {
			name string
			est  func() (HurstEstimate, error)
			tol  float64
		}
		cases := []estCase{
			{"aggvar", func() (HurstEstimate, error) { return HurstAggVar(x, 4, n/32) }, 0.12},
			{"rs", func() (HurstEstimate, error) { return HurstRS(x) }, 0.15},
			{"periodogram", func() (HurstEstimate, error) { return HurstPeriodogram(x, 0.1) }, 0.1},
			{"wavelet", func() (HurstEstimate, error) { return HurstWavelet(x, WaveletOptions{}) }, 0.1},
			{"dfa", func() (HurstEstimate, error) { return HurstDFA(x) }, 0.12},
		}
		for _, c := range cases {
			e, err := c.est()
			if err != nil {
				t.Errorf("H=%g %s: %v", h, c.name, err)
				continue
			}
			if math.Abs(e.H-h) > c.tol {
				t.Errorf("H=%g %s: estimated %.3f (tolerance %g)", h, c.name, e.H, c.tol)
			}
			if math.Abs(e.Beta-BetaFromH(e.H)) > 1e-12 {
				t.Errorf("%s: Beta field inconsistent with H", c.name)
			}
		}
	}
}

func TestHurstWhiteNoiseIsHalf(t *testing.T) {
	rng := dist.NewRand(4242)
	x := make([]float64, 1<<14)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for name, e := range EstimateAll(x) {
		if math.Abs(e.H-0.5) > 0.12 {
			t.Errorf("%s on white noise: H = %.3f, want ~0.5", name, e.H)
		}
	}
}

func TestHurstEstimatorErrors(t *testing.T) {
	short := []float64{1, 2, 3}
	if _, err := HurstAggVar(short, 1, 0); err == nil {
		t.Error("aggvar: expected error for short series")
	}
	if _, err := HurstRS(short); err == nil {
		t.Error("rs: expected error for short series")
	}
	if _, err := HurstPeriodogram(short, 0.1); err == nil {
		t.Error("periodogram: expected error for short series")
	}
	if _, err := HurstPeriodogram(make([]float64, 1024), 0); err == nil {
		t.Error("periodogram: expected error for lowFrac = 0")
	}
	if _, err := HurstWavelet(short, WaveletOptions{}); err == nil {
		t.Error("wavelet: expected error for short series")
	}
	if _, err := HurstDFA(short); err == nil {
		t.Error("dfa: expected error for short series")
	}
}

func TestEstimateAllComplete(t *testing.T) {
	gen, err := NewFGN(0.7, 1<<13, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := gen.Generate(dist.NewRand(55))
	got := EstimateAll(x)
	for _, m := range []string{"aggvar", "rs", "periodogram", "wavelet", "dfa"} {
		if _, ok := got[m]; !ok {
			t.Errorf("EstimateAll missing method %q", m)
		}
	}
}

func BenchmarkFGNGenerate64k(b *testing.B) {
	gen, err := NewFGN(0.8, 1<<16, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := dist.NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Generate(rng)
	}
}

func BenchmarkHurstWavelet64k(b *testing.B) {
	gen, _ := NewFGN(0.8, 1<<16, 0, 1)
	x := gen.Generate(dist.NewRand(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HurstWavelet(x, WaveletOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
