package core

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// MeanOf returns the plain average of the sampled values — the estimator
// of the process mean that the whole paper is about. NaN for no samples.
func MeanOf(samples []Sample) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range samples {
		s += x.Value
	}
	return s / float64(len(samples))
}

// CountKinds returns how many base and qualified samples the slice holds.
func CountKinds(samples []Sample) (base, qualified int) {
	for _, s := range samples {
		if s.Qualified {
			qualified++
		} else {
			base++
		}
	}
	return base, qualified
}

// Eta returns the paper's relative mean bias eta = 1 - sampledMean/realMean
// (Eq. 21). Positive eta means under-estimation.
func Eta(sampledMean, realMean float64) float64 {
	if realMean == 0 {
		return math.NaN()
	}
	return 1 - sampledMean/realMean
}

// Overhead is the paper's BSS cost metric: qualified samples divided by
// base (systematic) samples. Zero for the classic samplers.
func Overhead(samples []Sample) float64 {
	base, qualified := CountKinds(samples)
	if base == 0 {
		return math.NaN()
	}
	return float64(qualified) / float64(base)
}

// Efficiency is the paper's Section VI metric e = (1 - eta) / log10(Nt),
// rewarding accuracy per order of magnitude of samples taken. Nt counts
// every kept sample (base + qualified). We use 1 - |eta| so that
// over-estimation is penalized symmetrically; for the under-estimating
// regimes the paper reports, the two definitions coincide.
func Efficiency(eta float64, totalSamples int) float64 {
	if totalSamples < 2 {
		return math.NaN()
	}
	return (1 - math.Abs(eta)) / math.Log10(float64(totalSamples))
}

// InstanceStats aggregates repeated sampling experiments ("instances" in
// the paper's terminology: different systematic offsets, or different
// random draws at the same rate).
type InstanceStats struct {
	Means       []float64 // per-instance sampled means
	GrandMean   float64   // average of the sampled means
	AvgVariance float64   // E[(Xi - realMean)^2], the paper's E(V)
	AvgEta      float64   // Eta(GrandMean, realMean)
	AvgSamples  float64   // average kept samples per instance
	AvgOverhead float64   // average qualified/base ratio (NaN if no base)
}

// RunInstances executes n independent sampling instances, one fresh
// kernel from factory each, and reduces them against the known real
// mean. The factory receives the instance number (0..n-1) and typically
// varies the systematic offset or the random seed.
func RunInstances(f []float64, realMean float64, n int, factory func(instance int) (Kernel, error)) (InstanceStats, error) {
	if n < 1 {
		return InstanceStats{}, fmt.Errorf("core: need at least one instance, got %d", n)
	}
	if len(f) == 0 {
		return InstanceStats{}, fmt.Errorf("core: cannot sample an empty series")
	}
	st := InstanceStats{Means: make([]float64, 0, n)}
	var sqErr, samples, overheadSum float64
	overheadN := 0
	for i := 0; i < n; i++ {
		k, err := factory(i)
		if err != nil {
			return InstanceStats{}, fmt.Errorf("core: building instance %d: %w", i, err)
		}
		got, err := Collect(k, f)
		if err != nil {
			return InstanceStats{}, fmt.Errorf("core: sampling instance %d: %w", i, err)
		}
		m := MeanOf(got)
		st.Means = append(st.Means, m)
		d := m - realMean
		sqErr += d * d
		samples += float64(len(got))
		if oh := Overhead(got); !math.IsNaN(oh) {
			overheadSum += oh
			overheadN++
		}
	}
	st.GrandMean = stats.Mean(st.Means)
	st.AvgVariance = sqErr / float64(n)
	st.AvgEta = Eta(st.GrandMean, realMean)
	st.AvgSamples = samples / float64(n)
	if overheadN > 0 {
		st.AvgOverhead = overheadSum / float64(overheadN)
	} else {
		st.AvgOverhead = math.NaN()
	}
	return st, nil
}

// SystematicInstances returns a factory producing systematic kernels
// whose offsets are spread evenly across the sampling interval — the
// paper's notion of distinct systematic instances ("different starting
// sampling points"). Spreading (rather than using adjacent offsets)
// keeps instances decorrelated on bursty traffic, where a burst spanning
// a few ticks would otherwise be caught by several near-identical
// instances at once.
func SystematicInstances(interval int) func(int) (Kernel, error) {
	return func(i int) (Kernel, error) {
		return Systematic{Interval: interval, Offset: SpreadOffset(i, interval)}.Kernel()
	}
}

// SpreadOffset maps instance i to an offset in [0, interval) using a
// golden-ratio low-discrepancy sequence, so any number of instances
// covers the interval roughly uniformly without collisions.
func SpreadOffset(i, interval int) int {
	const golden = 0.6180339887498949
	off := int(math.Mod(float64(i)*golden, 1) * float64(interval))
	if off >= interval {
		off = interval - 1
	}
	return off
}

// StratifiedInstances returns a factory seeding one stratified kernel per
// instance.
func StratifiedInstances(interval int, baseSeed uint64) func(int) (Kernel, error) {
	return func(i int) (Kernel, error) {
		return Stratified{Interval: interval, Rng: newRand(baseSeed + uint64(i)*0x9e3779b9)}.Kernel()
	}
}

// SimpleRandomInstances returns a factory drawing n-sample simple random
// instances.
func SimpleRandomInstances(n int, baseSeed uint64) func(int) (Kernel, error) {
	return func(i int) (Kernel, error) {
		return SimpleRandom{N: n, Rng: newRand(baseSeed + uint64(i)*0x9e3779b9)}.Kernel()
	}
}

// BSSInstances returns a factory spreading BSS offsets across the
// interval, holding the rest of the configuration fixed.
func BSSInstances(cfg BSS) func(int) (Kernel, error) {
	return func(i int) (Kernel, error) {
		c := cfg
		c.Offset = SpreadOffset(i, cfg.Interval)
		return c.Kernel()
	}
}

// SampledSeries extracts the values of the samples in time order, the
// "sampled process" g(t) whose Hurst parameter Sections III and VI
// estimate.
func SampledSeries(samples []Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.Value
	}
	return out
}
