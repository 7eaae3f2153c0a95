package core

import (
	"fmt"

	"repro/internal/stats"
)

// This file computes the paper's average variance E(V) = E[(Xi - mean)^2]
// *exactly* for each technique, rather than estimating it from a handful
// of sampled instances. Exact evaluation matters on heavy-tailed traffic:
// an instance estimate of E(V) is dominated by whether the drawn instances
// happened to catch the few giant values, so estimated orderings flap even
// with dozens of instances. Every function below is O(len(f)) or
// O(len(f) log ...) total.

// ExactSystematicVariance returns E(Vsy) for sampling interval c: the
// exact average over all c possible offsets of (offset mean - mean)^2.
func ExactSystematicVariance(f []float64, c int, mean float64) (float64, error) {
	if c < 1 || c > len(f) {
		return 0, fmt.Errorf("core: interval %d out of range for series of length %d", c, len(f))
	}
	sums := make([]float64, c)
	counts := make([]int, c)
	for i, v := range f {
		sums[i%c] += v
		counts[i%c]++
	}
	var ev float64
	for o := 0; o < c; o++ {
		if counts[o] == 0 {
			continue
		}
		d := sums[o]/float64(counts[o]) - mean
		ev += d * d
	}
	return ev / float64(c), nil
}

// ExactStratifiedVariance returns E(Vrs) for stratum length c: with one
// uniform pick per full stratum, the instance mean is the average of K
// independent uniform picks, so
//
//	E(V) = Var(instance mean) + (E[instance mean] - mean)^2
//	     = (1/K^2) * sum_s Var_s + bias^2,
//
// where Var_s is the within-stratum population variance.
func ExactStratifiedVariance(f []float64, c int, mean float64) (float64, error) {
	if c < 1 || c > len(f) {
		return 0, fmt.Errorf("core: interval %d out of range for series of length %d", c, len(f))
	}
	k := len(f) / c
	if k == 0 {
		return 0, fmt.Errorf("core: no full stratum of length %d in series of length %d", c, len(f))
	}
	var sumVar, sumMean float64
	for s := 0; s < k; s++ {
		seg := f[s*c : (s+1)*c]
		sumVar += stats.Variance(seg)
		sumMean += stats.Mean(seg)
	}
	kf := float64(k)
	bias := sumMean/kf - mean
	return sumVar/(kf*kf) + bias*bias, nil
}

// ExactSimpleRandomVariance returns E(Vran) for drawing n of the N values
// without replacement: the classic finite-population formula
//
//	E(V) = (S^2/n) * (1 - n/N),  S^2 the population variance with 1/(N-1),
//
// plus the squared bias of the population mean against the supplied mean
// (zero when mean is the population mean).
func ExactSimpleRandomVariance(f []float64, n int, mean float64) (float64, error) {
	bigN := len(f)
	if n < 1 || n > bigN {
		return 0, fmt.Errorf("core: sample size %d out of range for population %d", n, bigN)
	}
	if bigN < 2 {
		return 0, fmt.Errorf("core: population of size %d too small", bigN)
	}
	popMean := stats.Mean(f)
	s2 := stats.SampleVariance(f)
	bias := popMean - mean
	return s2/float64(n)*(1-float64(n)/float64(bigN)) + bias*bias, nil
}

// ExactBSSVariance returns E(V) for BSS with the given configuration,
// averaged exactly over all Interval offsets. BSS is deterministic given
// the offset, so this is an exact expectation like ExactSystematicVariance
// (total cost O(len(f)) across all offsets).
func ExactBSSVariance(f []float64, cfg BSS, mean float64) (float64, error) {
	if cfg.Interval < 1 || cfg.Interval > len(f) {
		return 0, fmt.Errorf("core: interval %d out of range for series of length %d", cfg.Interval, len(f))
	}
	var ev float64
	used := 0
	for o := 0; o < cfg.Interval; o++ {
		c := cfg
		c.Offset = o
		k, err := NewStreamBSS(c)
		if err != nil {
			return 0, fmt.Errorf("core: BSS offset %d: %w", o, err)
		}
		samples, err := Collect(k, f)
		if err != nil {
			return 0, fmt.Errorf("core: BSS offset %d: %w", o, err)
		}
		if len(samples) == 0 {
			continue
		}
		d := MeanOf(samples) - mean
		ev += d * d
		used++
	}
	if used == 0 {
		return 0, fmt.Errorf("core: no BSS offset produced samples")
	}
	return ev / float64(used), nil
}
