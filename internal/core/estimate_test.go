package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/stats"
	"repro/internal/traffic"
)

func TestMeanOf(t *testing.T) {
	if !math.IsNaN(MeanOf(nil)) {
		t.Error("MeanOf(nil) should be NaN")
	}
	s := []Sample{{Value: 2}, {Value: 4}, {Value: 9}}
	if got := MeanOf(s); got != 5 {
		t.Errorf("MeanOf = %g, want 5", got)
	}
}

func TestCountKindsAndOverhead(t *testing.T) {
	s := []Sample{{Qualified: false}, {Qualified: true}, {Qualified: true}, {Qualified: false}}
	base, q := CountKinds(s)
	if base != 2 || q != 2 {
		t.Errorf("CountKinds = (%d, %d), want (2, 2)", base, q)
	}
	if got := Overhead(s); got != 1 {
		t.Errorf("Overhead = %g, want 1", got)
	}
	if !math.IsNaN(Overhead([]Sample{{Qualified: true}})) {
		t.Error("Overhead with no base samples should be NaN")
	}
}

func TestEta(t *testing.T) {
	if got := Eta(8, 10); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("Eta = %g, want 0.2", got)
	}
	if got := Eta(12, 10); math.Abs(got+0.2) > 1e-12 {
		t.Errorf("Eta = %g, want -0.2 (overshoot)", got)
	}
	if !math.IsNaN(Eta(5, 0)) {
		t.Error("Eta with zero real mean should be NaN")
	}
}

func TestEfficiency(t *testing.T) {
	// e = (1 - |eta|) / log10(Nt).
	if got := Efficiency(0.2, 1000); math.Abs(got-0.8/3) > 1e-12 {
		t.Errorf("Efficiency = %g, want %g", got, 0.8/3)
	}
	// Overshoot penalized symmetrically.
	if Efficiency(-0.2, 1000) != Efficiency(0.2, 1000) {
		t.Error("efficiency should be symmetric in eta")
	}
	if !math.IsNaN(Efficiency(0.1, 1)) {
		t.Error("efficiency with < 2 samples should be NaN")
	}
}

func TestRunInstancesSystematic(t *testing.T) {
	f := seq(1000)
	realMean := stats.Mean(f)
	const n = 10
	st, err := RunInstances(f, realMean, n, SystematicInstances(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Means) != n {
		t.Fatalf("means = %d, want %d", len(st.Means), n)
	}
	// For a linear ramp, instance i (offset o_i) has mean
	// realMean + (o_i - 4.5); verify against the spread-offset schedule.
	var wantGrand, wantVar float64
	for i := 0; i < n; i++ {
		o := float64(SpreadOffset(i, 10))
		wantGrand += (realMean + o - 4.5) / n
		wantVar += (o - 4.5) * (o - 4.5) / n
	}
	if grand := stats.Mean(st.Means); math.Abs(grand-wantGrand) > 1e-9 {
		t.Errorf("grand mean %g, want %g", grand, wantGrand)
	}
	if math.Abs(st.AvgVariance-wantVar) > 1e-9 {
		t.Errorf("avg variance %g, want %g", st.AvgVariance, wantVar)
	}
	if st.AvgSamples != 100 {
		t.Errorf("avg samples %g, want 100", st.AvgSamples)
	}
	if st.AvgOverhead != 0 {
		t.Errorf("systematic instances should report zero overhead, got %g", st.AvgOverhead)
	}
}

func TestSpreadOffsetCoverage(t *testing.T) {
	// Offsets stay in range and cover the interval roughly uniformly.
	const interval = 100
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		o := SpreadOffset(i, interval)
		if o < 0 || o >= interval {
			t.Fatalf("offset %d out of range", o)
		}
		seen[o] = true
	}
	if len(seen) < interval/2 {
		t.Errorf("only %d distinct offsets out of %d", len(seen), interval)
	}
}

func TestRunInstancesErrors(t *testing.T) {
	f := seq(100)
	if _, err := RunInstances(f, 0, 0, SystematicInstances(10)); err == nil {
		t.Error("expected error for zero instances")
	}
	if _, err := RunInstances(nil, 0, 2, SystematicInstances(10)); err == nil {
		t.Error("expected error for empty series")
	}
	factoryErr := func(int) (Kernel, error) { return nil, fmt.Errorf("boom") }
	if _, err := RunInstances(f, 0, 2, factoryErr); err == nil {
		t.Error("expected factory error to propagate")
	}
	sampleErr := func(int) (Kernel, error) { return SimpleRandom{N: 1000, Rng: newRand(1)}.Kernel() }
	if _, err := RunInstances(f, 0, 2, sampleErr); err == nil {
		t.Error("expected sampling error to propagate")
	}
}

func TestTheorem2OrderingOnLRDTraffic(t *testing.T) {
	// The paper's Theorem 2 + Figure 5: on LRD traffic,
	// E(Vsy) <= E(Vrs) <= E(Vran). Statistical, so allow slack but demand
	// the systematic <= simple-random ordering strictly and stratified in
	// between-ish.
	cfg := traffic.OnOffConfig{
		Sources: 32, AlphaOn: 1.4, AlphaOff: 1.4,
		MeanOn: 10, MeanOff: 30, Rate: 1, Ticks: 1 << 17,
	}
	f, err := traffic.GenerateOnOff(cfg, dist.NewRand(31))
	if err != nil {
		t.Fatal(err)
	}
	realMean := stats.Mean(f)
	const interval = 256
	const instances = 64
	sy, err := RunInstances(f, realMean, instances, SystematicInstances(interval))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunInstances(f, realMean, instances, StratifiedInstances(interval, 1000))
	if err != nil {
		t.Fatal(err)
	}
	ran, err := RunInstances(f, realMean, instances, SimpleRandomInstances(len(f)/interval, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if !(sy.AvgVariance <= ran.AvgVariance*1.05) {
		t.Errorf("E(Vsy)=%g should not exceed E(Vran)=%g", sy.AvgVariance, ran.AvgVariance)
	}
	if !(sy.AvgVariance <= rs.AvgVariance*1.25) {
		t.Errorf("E(Vsy)=%g should be <= E(Vrs)=%g (with slack)", sy.AvgVariance, rs.AvgVariance)
	}
	if !(rs.AvgVariance <= ran.AvgVariance*1.25) {
		t.Errorf("E(Vrs)=%g should be <= E(Vran)=%g (with slack)", rs.AvgVariance, ran.AvgVariance)
	}
}

func TestBSSInstancesFactory(t *testing.T) {
	cfg := BSS{Interval: 10, L: 3, Epsilon: 1}
	factory := BSSInstances(cfg)
	s0, err := factory(0)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := factory(1)
	if err != nil {
		t.Fatal(err)
	}
	o0, o1 := s0.(*StreamBSS).cfg.Offset, s1.(*StreamBSS).cfg.Offset
	if o0 != SpreadOffset(0, 10) || o1 != SpreadOffset(1, 10) {
		t.Errorf("offsets = %d, %d; want spread schedule", o0, o1)
	}
	bad := BSSInstances(BSS{Interval: 10, L: -2, Epsilon: 1})
	if _, err := bad(0); err == nil {
		t.Error("expected invalid config to error")
	}
}

func TestSampledSeries(t *testing.T) {
	s := []Sample{{Index: 3, Value: 7}, {Index: 9, Value: 2}}
	got := SampledSeries(s)
	if len(got) != 2 || got[0] != 7 || got[1] != 2 {
		t.Errorf("SampledSeries = %v", got)
	}
}

func TestSamplersUnderestimateHeavyTailedMean(t *testing.T) {
	// Section V-A: at low rates, the sampled mean of a heavy-tailed series
	// typically under-shoots the real mean, because the rare huge values
	// carry much of the mass. Check the grand mean over instances sits
	// below the real mean for both systematic and simple random sampling.
	rng := dist.NewRand(555)
	p := dist.Pareto{Alpha: 1.2, Xm: 1}
	f := make([]float64, 1<<19)
	for i := range f {
		f[i] = p.Sample(rng)
	}
	realMean := stats.Mean(f)
	const interval = 4096 // rate ~2.4e-4
	const instances = 32
	sy, err := RunInstances(f, realMean, instances, SystematicInstances(interval))
	if err != nil {
		t.Fatal(err)
	}
	ran, err := RunInstances(f, realMean, instances, SimpleRandomInstances(len(f)/interval, 77))
	if err != nil {
		t.Fatal(err)
	}
	// The estimator is unbiased in expectation, but the skew means the
	// *typical* instance under-shoots: most instances miss the rare giant
	// values. Check that a clear majority of instances land below the real
	// mean.
	for _, tc := range []struct {
		name string
		st   InstanceStats
	}{{"systematic", sy}, {"simple-random", ran}} {
		under := 0
		for _, m := range tc.st.Means {
			if m < realMean {
				under++
			}
		}
		if under < instances*6/10 {
			t.Errorf("%s: only %d/%d instances under-estimate; heavy-tail skew should make most undershoot", tc.name, under, instances)
		}
	}
}
