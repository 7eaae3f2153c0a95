package repro_test

// The benchmark harness: one benchmark per paper figure (Figures 2-22),
// regenerating the corresponding experiment at reduced scale per
// iteration, plus ablation benchmarks for the design choices DESIGN.md
// calls out. Run everything with:
//
//	go test -bench=. -benchmem
//
// Full-scale figure regeneration (paper-sized traces and rate ranges) is
// cmd/figures' job; these benchmarks track the cost of the experiment
// pipelines themselves.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dsp"
	"repro/internal/experiments"
	"repro/internal/lrd"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/sampling"
	"repro/sampling/estimate"
)

// benchFigure runs one experiment per iteration at small scale.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	runner := experiments.Registry()[id]
	if runner == nil {
		b.Fatalf("unknown figure %q", id)
	}
	// Warm the shared trace cache outside the timer.
	if _, err := runner(experiments.ScaleSmall); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner(experiments.ScaleSmall); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig02(b *testing.B) { benchFigure(b, "fig02") }
func BenchmarkFig03(b *testing.B) { benchFigure(b, "fig03") }
func BenchmarkFig04(b *testing.B) { benchFigure(b, "fig04") }
func BenchmarkFig05(b *testing.B) { benchFigure(b, "fig05") }
func BenchmarkFig06(b *testing.B) { benchFigure(b, "fig06") }
func BenchmarkFig07(b *testing.B) { benchFigure(b, "fig07") }
func BenchmarkFig08(b *testing.B) { benchFigure(b, "fig08") }
func BenchmarkFig09(b *testing.B) { benchFigure(b, "fig09") }
func BenchmarkFig10(b *testing.B) { benchFigure(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchFigure(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchFigure(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchFigure(b, "fig13") }
func BenchmarkFig14(b *testing.B) { benchFigure(b, "fig14") }
func BenchmarkFig15(b *testing.B) { benchFigure(b, "fig15") }
func BenchmarkFig16(b *testing.B) { benchFigure(b, "fig16") }
func BenchmarkFig17(b *testing.B) { benchFigure(b, "fig17") }
func BenchmarkFig18(b *testing.B) { benchFigure(b, "fig18") }
func BenchmarkFig19(b *testing.B) { benchFigure(b, "fig19") }
func BenchmarkFig20(b *testing.B) { benchFigure(b, "fig20") }
func BenchmarkFig21(b *testing.B) { benchFigure(b, "fig21") }
func BenchmarkFig22(b *testing.B) { benchFigure(b, "fig22") }

// --- Ablation: FFT vs direct convolution in the SNC checker ------------

func sncInputs() (core.IntervalPMF, lrd.PowerLawACF, []int) {
	p, err := core.StratifiedPMF(8)
	if err != nil {
		panic(err)
	}
	taus := make([]int, 0, 12)
	for tau := 8; tau <= 96; tau += 8 {
		taus = append(taus, tau)
	}
	return p, lrd.PowerLawACF{Const: 1, Beta: 0.5}, taus
}

func BenchmarkSNCAblationFFT(b *testing.B) {
	p, acf, taus := sncInputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CheckSNC(p, acf, taus); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSNCAblationDirect(b *testing.B) {
	p, acf, taus := sncInputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CheckSNCDirect(p, acf, taus); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: BSS design modes (L tuned vs epsilon tuned) --------------

func bssAblationTrace(b *testing.B) ([]float64, float64) {
	b.Helper()
	rng := dist.NewRand(321)
	p := dist.Pareto{Alpha: 1.5, Xm: 1}
	f := make([]float64, 1<<18)
	for i := range f {
		f[i] = p.Sample(rng)
	}
	return f, stats.Mean(f)
}

func BenchmarkBSSDesignLTuned(b *testing.B) {
	f, mean := bssAblationTrace(b)
	design, err := core.NewBSSDesign(1.5)
	if err != nil {
		b.Fatal(err)
	}
	l, err := design.LUnbiased(1.0, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.BSS{Interval: 1000, L: int(l), Epsilon: 1.0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samples, err := collectBSS(cfg, f)
		if err != nil {
			b.Fatal(err)
		}
		_ = core.Eta(core.MeanOf(samples), mean)
	}
}

func BenchmarkBSSDesignEpsTuned(b *testing.B) {
	f, mean := bssAblationTrace(b)
	design, err := core.NewBSSDesign(1.5)
	if err != nil {
		b.Fatal(err)
	}
	eps, err := design.EpsForTarget(10, 0.2, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.BSS{Interval: 1000, L: 10, Epsilon: eps}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samples, err := collectBSS(cfg, f)
		if err != nil {
			b.Fatal(err)
		}
		_ = core.Eta(core.MeanOf(samples), mean)
	}
}

// --- Ablation: exact vs instance-estimated average variance -------------

func BenchmarkAvgVarianceExact(b *testing.B) {
	f, mean := bssAblationTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExactSystematicVariance(f, 1000, mean); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAvgVarianceInstances(b *testing.B) {
	f, mean := bssAblationTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunInstances(f, mean, 40, core.SystematicInstances(1000)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Whole-series kernel run, per technique ---------------------------
//
// BenchmarkSamplerStream runs core.Collect — the whole trace as one
// OfferBatch, then Finish, the run the paper's figures use — over a
// fresh kernel each iteration: the raw cost of the core Kernel
// interface without the public engine's lock.

// samplerBenchSpecs names one spec per technique at a 1e-3-ish rate.
var samplerBenchSpecs = []struct{ name, spec string }{
	{"Systematic", "systematic:interval=1000"},
	{"Stratified", "stratified:interval=1000,seed=1"},
	{"SimpleRandom", "simple:rate=0.001,seed=1"},
	{"Bernoulli", "bernoulli:rate=0.001,seed=1"},
	{"BSS", "bss:interval=1000,L=10,eps=1.0"},
}

func samplerBenchTrace() []float64 {
	rng := dist.NewRand(77)
	p := dist.Pareto{Alpha: 1.5, Xm: 1}
	f := make([]float64, 1<<20)
	for i := range f {
		f[i] = p.Sample(rng)
	}
	return f
}

// collectBSS runs a fresh kernel for cfg over f.
func collectBSS(cfg core.BSS, f []float64) ([]core.Sample, error) {
	k, err := cfg.Kernel()
	if err != nil {
		return nil, err
	}
	return core.Collect(k, f)
}

func BenchmarkSamplerStream(b *testing.B) {
	f := samplerBenchTrace()
	for _, tc := range samplerBenchSpecs {
		b.Run(tc.name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k, err := core.Lookup(tc.spec)
				if err != nil {
					b.Fatal(err)
				}
				samples, err := core.Collect(k, f)
				if err != nil {
					b.Fatal(err)
				}
				if len(samples) == 0 {
					b.Fatal("kept no samples")
				}
			}
		})
	}
}

// BenchmarkRegistryLookup tracks the spec-parse + build cost, which sits
// on the control path of every probe and experiment construction.
func BenchmarkRegistryLookup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Lookup("bss:rate=1e-3,L=10,eps=1.0"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Public sampling API ------------------------------------------------
//
// The public engine adds per-tick locking (for concurrent Snapshot) on
// top of the raw core Kernel; these benchmarks track that tax and the
// cost of live observation itself.

// BenchmarkPublicEngineStream is the public-API counterpart of
// BenchmarkSamplerStream: the per-tick cost an Engine.Offer caller
// pays.
func BenchmarkPublicEngineStream(b *testing.B) {
	f := samplerBenchTrace()
	for _, tc := range samplerBenchSpecs {
		b.Run(tc.name, func(b *testing.B) {
			spec := sampling.MustParse(tc.spec)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := sampling.New(spec)
				if err != nil {
					b.Fatal(err)
				}
				for _, v := range f {
					eng.Offer(v)
				}
				if _, err := eng.Finish(); err != nil {
					b.Fatal(err)
				}
				if eng.Snapshot().Kept == 0 {
					b.Fatal("kept no samples")
				}
			}
		})
	}
}

// BenchmarkPublicEngineOfferBatch is the batch-ingest counterpart of
// BenchmarkPublicEngineStream: the same per-technique work fed in
// 512-tick batches, paying one engine-lock acquisition per batch
// instead of one per tick — the shape every hot ingest path (hub,
// sampled, sampleload) now drives.
func BenchmarkPublicEngineOfferBatch(b *testing.B) {
	f := samplerBenchTrace()
	const batch = 512
	for _, tc := range samplerBenchSpecs {
		b.Run(tc.name, func(b *testing.B) {
			spec := sampling.MustParse(tc.spec)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := sampling.New(spec)
				if err != nil {
					b.Fatal(err)
				}
				for off := 0; off < len(f); off += batch {
					eng.OfferBatch(f[off : off+batch])
				}
				if _, err := eng.Finish(); err != nil {
					b.Fatal(err)
				}
				if eng.Snapshot().Kept == 0 {
					b.Fatal("kept no samples")
				}
			}
		})
	}
}

// BenchmarkGroupOfferBatch measures the comparison-group fan-out per
// group-lock acquisition; ns/op is per batch.
//
//   - bare: one 512-tick batch through all five techniques plus the
//     shared input accumulator, no estimator.
//   - aggvar: the serving benchmark's groups-estimator shape — its
//     five specs, an aggvar input-side estimator and 8192-tick batches
//     of fGn (H=0.8) traffic, the setup where the group input side
//     dominates.
//   - wavelet, rs: the same shape with a wavelet or rs input-side
//     estimator, whose input side keeps a separate accumulator next to
//     the estimator: two batch passes, the estimator's TickBatch and
//     the accumulator's folded AddAll.
func BenchmarkGroupOfferBatch(b *testing.B) {
	run := func(b *testing.B, specs []string, batch func(i int) []float64, opts ...sampling.Option) {
		b.Helper()
		parsed := make([]sampling.Spec, len(specs))
		for i, spec := range specs {
			parsed[i] = sampling.MustParse(spec)
		}
		g, err := sampling.NewGroup(parsed, opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.OfferBatch(batch(i))
		}
	}
	b.Run("bare", func(b *testing.B) {
		specs := make([]string, len(samplerBenchSpecs))
		for i, tc := range samplerBenchSpecs {
			specs[i] = tc.spec
		}
		f := samplerBenchTrace()[:512]
		run(b, specs, func(int) []float64 { return f })
	})
	gen, err := lrd.NewFGN(0.8, 1<<16, 100, 20)
	if err != nil {
		b.Fatal(err)
	}
	f := gen.Generate(dist.NewRand(5))
	for _, method := range estimate.Methods() {
		b.Run(string(method), func(b *testing.B) {
			const batch = 8192
			specs := []string{
				"systematic:interval=100,offset=7",
				"stratified:interval=100,seed=11",
				"bernoulli:rate=0.01,seed=12",
				"simple:n=1000,seed=13",
				"bss:interval=100,L=5,eps=1.0,offset=3",
			}
			run(b, specs, func(i int) []float64 {
				off := i * batch % len(f)
				return f[off : off+batch]
			}, sampling.WithEstimator(method))
		})
	}
}

// BenchmarkPublicSnapshot measures one mid-stream observation of a warm
// engine — the operation a live dashboard performs per refresh.
func BenchmarkPublicSnapshot(b *testing.B) {
	f := samplerBenchTrace()
	eng, err := sampling.New(sampling.MustParse("bss:interval=1000,L=10,eps=1.0"))
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range f[:1<<16] {
		eng.Offer(v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sum := eng.Snapshot(); sum.Seen == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkPublicNew tracks the typed parse + build control path of the
// public API, the counterpart of BenchmarkRegistryLookup.
func BenchmarkPublicNew(b *testing.B) {
	spec := sampling.MustParse("bss:rate=1e-3,L=10,eps=1.0")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sampling.New(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks -----------------------------------------

func BenchmarkTraceSynthesis(b *testing.B) {
	cfg := traffic.SynthConfig{
		Pairs: 50, Duration: 60, AlphaOn: 1.76,
		MeanOn: 0.5, MeanOff: 30, MeanRate: 5e5, RateAlpha: 1.6,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := traffic.SynthesizeTrace(cfg, dist.NewRand(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHurstEstimatorSuite(b *testing.B) {
	gen, err := lrd.NewFGN(0.8, 1<<14, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	x := gen.Generate(dist.NewRand(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := lrd.EstimateAll(x); len(got) < 5 {
			b.Fatalf("only %d estimators succeeded", len(got))
		}
	}
}

func BenchmarkFFTRoundTrip64k(b *testing.B) {
	x := make([]float64, 1<<16)
	for i := range x {
		x[i] = float64(i % 101)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := dsp.FFTReal(x)
		dsp.IFFT(spec)
	}
}
