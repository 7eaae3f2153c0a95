package core

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/stats"
	"repro/internal/traffic"
)

func TestExactSystematicVarianceRamp(t *testing.T) {
	// Linear ramp 0..999, C=10: offset o gives mean 494.5 + o + 0.5... the
	// offset means are mean + (o - 4.5), so E(V) = Var(U{0..9}) = 8.25.
	f := seq(1000)
	mean := stats.Mean(f)
	got, err := ExactSystematicVariance(f, 10, mean)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-8.25) > 1e-9 {
		t.Errorf("E(Vsy) = %g, want 8.25", got)
	}
	if _, err := ExactSystematicVariance(f, 0, mean); err == nil {
		t.Error("expected error for C = 0")
	}
	if _, err := ExactSystematicVariance(f, 2000, mean); err == nil {
		t.Error("expected error for C > len")
	}
}

func TestExactSystematicMatchesAllOffsetInstances(t *testing.T) {
	rng := dist.NewRand(12)
	f := make([]float64, 3000)
	for i := range f {
		f[i] = rng.ExpFloat64() * 10
	}
	mean := stats.Mean(f)
	const c = 30
	exact, err := ExactSystematicVariance(f, c, mean)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force over every offset.
	var brute float64
	for o := 0; o < c; o++ {
		smp, err := collect(Systematic{Interval: c, Offset: o}, f)
		if err != nil {
			t.Fatal(err)
		}
		d := MeanOf(smp) - mean
		brute += d * d / c
	}
	if math.Abs(exact-brute) > 1e-9*(1+brute) {
		t.Errorf("exact %g vs brute force %g", exact, brute)
	}
}

func TestExactStratifiedVarianceMatchesMonteCarlo(t *testing.T) {
	rng := dist.NewRand(13)
	f := make([]float64, 4000)
	for i := range f {
		f[i] = rng.NormFloat64()*3 + float64(i%7)
	}
	mean := stats.Mean(f)
	const c = 40
	exact, err := ExactStratifiedVariance(f, c, mean)
	if err != nil {
		t.Fatal(err)
	}
	var mc float64
	const trials = 4000
	for i := 0; i < trials; i++ {
		s := Stratified{Interval: c, Rng: newRand(uint64(100 + i))}
		smp, err := collect(s, f)
		if err != nil {
			t.Fatal(err)
		}
		d := MeanOf(smp) - mean
		mc += d * d / trials
	}
	if math.Abs(exact-mc)/exact > 0.1 {
		t.Errorf("exact %g vs Monte Carlo %g", exact, mc)
	}
	if _, err := ExactStratifiedVariance(f, 0, mean); err == nil {
		t.Error("expected error for C = 0")
	}
	if _, err := ExactStratifiedVariance(f[:10], 40, mean); err == nil {
		t.Error("expected error when no full stratum fits")
	}
}

func TestExactSimpleRandomVarianceMatchesMonteCarlo(t *testing.T) {
	rng := dist.NewRand(14)
	f := make([]float64, 2000)
	for i := range f {
		f[i] = rng.ExpFloat64()
	}
	mean := stats.Mean(f)
	const n = 50
	exact, err := ExactSimpleRandomVariance(f, n, mean)
	if err != nil {
		t.Fatal(err)
	}
	var mc float64
	const trials = 4000
	for i := 0; i < trials; i++ {
		s := SimpleRandom{N: n, Rng: newRand(uint64(500 + i))}
		smp, err := collect(s, f)
		if err != nil {
			t.Fatal(err)
		}
		d := MeanOf(smp) - mean
		mc += d * d / trials
	}
	if math.Abs(exact-mc)/exact > 0.1 {
		t.Errorf("exact %g vs Monte Carlo %g", exact, mc)
	}
	if _, err := ExactSimpleRandomVariance(f, 0, mean); err == nil {
		t.Error("expected error for n = 0")
	}
	if _, err := ExactSimpleRandomVariance([]float64{1}, 1, 1); err == nil {
		t.Error("expected error for tiny population")
	}
	// Full census has zero variance (and zero bias against the true mean).
	v, err := ExactSimpleRandomVariance(f, len(f), mean)
	if err != nil {
		t.Fatal(err)
	}
	if v > 1e-12 {
		t.Errorf("census variance = %g, want 0", v)
	}
}

func TestExactBSSVarianceDegenerate(t *testing.T) {
	// With L=0 (or a threshold no value reaches) BSS is systematic, so the
	// exact variances must agree.
	rng := dist.NewRand(15)
	f := make([]float64, 5000)
	for i := range f {
		f[i] = rng.ExpFloat64()
	}
	mean := stats.Mean(f)
	const c = 25
	sys, err := ExactSystematicVariance(f, c, mean)
	if err != nil {
		t.Fatal(err)
	}
	bss, err := ExactBSSVariance(f, BSS{Interval: c, L: 0, Epsilon: 1}, mean)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sys-bss) > 1e-12*(1+sys) {
		t.Errorf("L=0 BSS variance %g != systematic %g", bss, sys)
	}
	if _, err := ExactBSSVariance(f, BSS{Interval: 0, L: 1, Epsilon: 1}, mean); err == nil {
		t.Error("expected error for bad interval")
	}
}

func TestTheorem2OrderingExactOnLRD(t *testing.T) {
	// The exact Theorem 2 check: on LRD traffic with convex ACF,
	// E(Vsy) <= E(Vrs) <= E(Vran) — now deterministic, no sampling noise.
	cfg := traffic.OnOffConfig{
		Sources: 32, AlphaOn: 1.4, AlphaOff: 1.4,
		MeanOn: 10, MeanOff: 30, Rate: 1, Ticks: 1 << 16,
	}
	f, err := traffic.GenerateOnOff(cfg, dist.NewRand(77))
	if err != nil {
		t.Fatal(err)
	}
	mean := stats.Mean(f)
	for _, c := range []int{16, 64, 256, 1024} {
		sy, err := ExactSystematicVariance(f, c, mean)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := ExactStratifiedVariance(f, c, mean)
		if err != nil {
			t.Fatal(err)
		}
		ran, err := ExactSimpleRandomVariance(f, len(f)/c, mean)
		if err != nil {
			t.Fatal(err)
		}
		// Theorem 2 holds in expectation over process realizations; a
		// single realization's exact values can deviate by a few percent
		// where the empirical ACF is locally non-convex.
		if !(sy <= rs*1.05) {
			t.Errorf("C=%d: E(Vsy)=%g > E(Vrs)=%g", c, sy, rs)
		}
		if !(rs <= ran*1.05) {
			t.Errorf("C=%d: E(Vrs)=%g > E(Vran)=%g", c, rs, ran)
		}
		if !(sy <= ran*1.02) {
			t.Errorf("C=%d: E(Vsy)=%g > E(Vran)=%g", c, sy, ran)
		}
	}
}

func BenchmarkExactSystematicVariance(b *testing.B) {
	f := make([]float64, 1<<20)
	for i := range f {
		f[i] = float64(i % 97)
	}
	mean := stats.Mean(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExactSystematicVariance(f, 1000, mean); err != nil {
			b.Fatal(err)
		}
	}
}
