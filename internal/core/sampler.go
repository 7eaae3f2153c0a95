// Package core implements the paper's contribution: the three classic
// traffic-sampling techniques (static systematic, stratified random,
// simple random), the proposed Biased Systematic Sampling (BSS) with
// static, unbiased, biased and online-adaptive parameterizations, the
// renewal-process machinery behind the Sufficient-and-Necessary Condition
// (Theorem 1) for Hurst-parameter preservation, the average-variance
// evaluation of Theorem 2, and the full BSS parameter theory (bias ratio
// xi, extra-sample count L, threshold ratio epsilon, overhead, and the
// eta(r) convergence law).
//
// Every technique is implemented once, as a Kernel: a state machine
// consuming the traffic process f(t) in stream order, one batch
// (OfferBatch) at a time, whose exact state can be saved and restored.
// The configuration types below (Systematic, Stratified, SimpleRandom,
// Bernoulli, BSS) validate parameters and build a fresh kernel; Collect
// runs one over a whole series as a single batch, so the paper's
// figures and the serving engines run the same code. A fixed technique
// table, read through Lookup, Build and Names, builds kernels from spec
// strings like "bss:rate=1e-3,L=10,eps=1.0".
package core

import (
	"fmt"
)

// Sample is one selected observation of the parent process.
type Sample struct {
	Index     int     `json:"index"`               // position in the parent series
	Value     float64 `json:"value"`               // f(Index)
	Qualified bool    `json:"qualified,omitempty"` // true when taken as a BSS extra ("qualified") sample
}

// Systematic is static systematic sampling: every Interval-th element is
// selected deterministically, starting at Offset. Different Offsets give
// the different "instances" whose spread Theorem 2 bounds.
type Systematic struct {
	Interval int // C >= 1
	Offset   int // in [0, Interval)
}

// Kernel validates the configuration and builds a fresh kernel.
func (s Systematic) Kernel() (Kernel, error) {
	if s.Interval < 1 {
		return nil, fmt.Errorf("core: systematic interval %d must be >= 1", s.Interval)
	}
	if s.Offset < 0 || s.Offset >= s.Interval {
		return nil, fmt.Errorf("core: systematic offset %d outside [0, %d)", s.Offset, s.Interval)
	}
	return &streamSystematic{interval: s.Interval, next: s.Offset}, nil
}

// Stratified is stratified random sampling: the time axis is divided into
// strata of length Interval and one position is drawn uniformly inside
// each stratum.
type Stratified struct {
	Interval int
	Rng      *Rand
}

// Kernel validates the configuration and builds a fresh kernel.
func (s Stratified) Kernel() (Kernel, error) {
	if s.Interval < 1 {
		return nil, fmt.Errorf("core: stratified interval %d must be >= 1", s.Interval)
	}
	if s.Rng == nil {
		return nil, fmt.Errorf("core: stratified sampling needs a random source")
	}
	return &streamStratified{interval: s.Interval, rng: s.Rng}, nil
}

// SimpleRandom is simple random sampling: positions drawn uniformly
// without replacement from the whole series. The size is either fixed (N)
// or population-relative (Rate, used when N == 0): with Rate r the draw
// keeps max(1, len(f)/round(1/r)) positions.
type SimpleRandom struct {
	N    int
	Rate float64
	Rng  *Rand
}

// Kernel validates the configuration and builds a fresh kernel. The
// fixed-size form (N > 0) runs a skip-based reservoir in O(N) memory;
// the population-relative form buffers the raw values and draws at
// Finish — a rate-sized draw without replacement needs the whole
// population.
func (s SimpleRandom) Kernel() (Kernel, error) {
	if s.N < 1 && s.Rate == 0 {
		return nil, fmt.Errorf("core: simple random sample size %d must be >= 1", s.N)
	}
	if s.N < 0 {
		return nil, fmt.Errorf("core: simple random sample size %d must be >= 0", s.N)
	}
	if s.N == 0 && (!(s.Rate > 0) || s.Rate > 1) {
		return nil, fmt.Errorf("core: simple random rate %g outside (0,1]", s.Rate)
	}
	if s.Rng == nil {
		return nil, fmt.Errorf("core: simple random sampling needs a random source")
	}
	return &streamSimpleRandom{n: s.N, rate: s.Rate, rng: s.Rng}, nil
}

// Bernoulli is probabilistic 1-in-1/Rate sampling: each element is selected
// independently with probability Rate. Its inter-sample gaps follow the
// geometric law of the paper's Eq. (13), making it the event-driven
// counterpart of SimpleRandom.
type Bernoulli struct {
	Rate float64
	Rng  *Rand
}

// Kernel validates the configuration and builds a fresh kernel.
func (s Bernoulli) Kernel() (Kernel, error) {
	if !(s.Rate > 0) || s.Rate > 1 {
		return nil, fmt.Errorf("core: Bernoulli rate %g outside (0,1]", s.Rate)
	}
	if s.Rng == nil {
		return nil, fmt.Errorf("core: Bernoulli sampling needs a random source")
	}
	return newStreamBernoulli(s.Rate, s.Rng), nil
}
