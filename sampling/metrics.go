package sampling

import "repro/internal/core"

// MeanOf returns the plain average of the sampled values — the estimator
// of the process mean the whole paper is about. NaN for no samples.
func MeanOf(samples []Sample) float64 { return core.MeanOf(samples) }

// CountKinds returns how many base and qualified (BSS extra) samples the
// slice holds.
func CountKinds(samples []Sample) (base, qualified int) { return core.CountKinds(samples) }

// Eta returns the paper's relative mean bias eta = 1 - sampledMean/realMean
// (Eq. 21). Positive eta means under-estimation.
func Eta(sampledMean, realMean float64) float64 { return core.Eta(sampledMean, realMean) }

// Overhead is the paper's BSS cost metric: qualified samples divided by
// base (systematic) samples. NaN when there are no base samples.
func Overhead(samples []Sample) float64 { return core.Overhead(samples) }

// Efficiency is the paper's Section VI metric e = (1 - |eta|) / log10(Nt),
// rewarding accuracy per order of magnitude of samples taken.
func Efficiency(eta float64, totalSamples int) float64 { return core.Efficiency(eta, totalSamples) }

// SampledSeries extracts the sample values in time order — the "sampled
// process" g(t) whose Hurst parameter the paper's Sections III and VI
// estimate.
func SampledSeries(samples []Sample) []float64 { return core.SampledSeries(samples) }
