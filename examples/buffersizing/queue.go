package main

// The queueing analysis that motivates the paper's insistence on
// preserving the Hurst parameter: buffer dimensioning for LRD input is
// governed by H (Norros' formula for fractional-Brownian input gives
// Weibull-tailed queue occupancy, P(Q > b) ~ exp(-gamma * b^(2-2H)),
// versus exponential for short-range input). This file offers a
// discrete-time fluid queue simulator fed by any rate series,
// occupancy/loss statistics, and the Norros effective-bandwidth bound —
// so a monitor can turn a *sampled* trace's estimated (mean, variance,
// H) into a buffer size and be checked against simulation on the full
// trace.

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Result summarizes one finite-buffer fluid-queue simulation.
type Result struct {
	MeanOccupied float64
	MaxOccupied  float64
	LossFraction float64 // lost work / offered work
	Occupancy    []float64
}

// Simulate runs a discrete-time fluid queue: each tick, arrivals[t] work
// arrives, service drains up to serviceRate, and work beyond the buffer
// capacity is lost. A nonpositive buffer means infinite. The returned
// occupancy series has one entry per tick (after service).
func Simulate(arrivals []float64, serviceRate, buffer float64) (Result, error) {
	if len(arrivals) == 0 {
		return Result{}, fmt.Errorf("queue: empty arrival series")
	}
	if !(serviceRate > 0) {
		return Result{}, fmt.Errorf("queue: service rate %g must be positive", serviceRate)
	}
	infinite := buffer <= 0
	res := Result{Occupancy: make([]float64, len(arrivals))}
	var q, offered, lost float64
	for t, a := range arrivals {
		if a < 0 {
			return Result{}, fmt.Errorf("queue: negative arrival %g at tick %d", a, t)
		}
		offered += a
		q += a
		if !infinite && q > buffer {
			lost += q - buffer
			q = buffer
		}
		q -= serviceRate
		if q < 0 {
			q = 0
		}
		res.Occupancy[t] = q
		res.MeanOccupied += q
		if q > res.MaxOccupied {
			res.MaxOccupied = q
		}
	}
	res.MeanOccupied /= float64(len(arrivals))
	if offered > 0 {
		res.LossFraction = lost / offered
	}
	return res, nil
}

// OverflowProb returns the empirical P(Q > b) of an occupancy series for
// each requested level.
func OverflowProb(occupancy []float64, levels []float64) ([]float64, error) {
	if len(occupancy) == 0 {
		return nil, fmt.Errorf("queue: empty occupancy series")
	}
	out := make([]float64, len(levels))
	for i, b := range levels {
		cnt := 0
		for _, q := range occupancy {
			if q > b {
				cnt++
			}
		}
		out[i] = float64(cnt) / float64(len(occupancy))
	}
	return out, nil
}

// NorrosModel carries the three traffic parameters buffer dimensioning
// for fBm-like input needs — exactly the quantities the paper's samplers
// estimate (mean rate, variance scale, Hurst parameter).
type NorrosModel struct {
	Mean     float64 // mean arrival rate m
	Variance float64 // per-tick variance sigma^2 (a = sigma^2/m is the index of dispersion)
	H        float64 // Hurst parameter in (1/2, 1)
}

// Validate checks the parameters.
func (n NorrosModel) Validate() error {
	switch {
	case !(n.Mean > 0):
		return fmt.Errorf("queue: Norros mean %g must be positive", n.Mean)
	case !(n.Variance > 0):
		return fmt.Errorf("queue: Norros variance %g must be positive", n.Variance)
	case n.H <= 0.5 || n.H >= 1:
		return fmt.Errorf("queue: Norros H %g outside (1/2,1)", n.H)
	}
	return nil
}

// OverflowBound returns Norros' lower-tail approximation for a fluid queue
// with fBm input at service rate c > m:
//
//	P(Q > b) ~ exp( -(c-m)^(2H) b^(2-2H) / (2 kappa(H)^2 a m) ),
//
// with kappa(H) = H^H (1-H)^(1-H) and a = Variance/Mean. The Weibull tail
// exponent 2-2H is the whole point: mis-estimating H mis-sizes buffers by
// orders of magnitude.
func (n NorrosModel) OverflowBound(c, b float64) (float64, error) {
	if err := n.Validate(); err != nil {
		return 0, err
	}
	if c <= n.Mean {
		return 1, nil // unstable queue: overflow is certain in the limit
	}
	if b <= 0 {
		return 1, nil
	}
	kappa := math.Pow(n.H, n.H) * math.Pow(1-n.H, 1-n.H)
	a := n.Variance / n.Mean
	exponent := math.Pow(c-n.Mean, 2*n.H) * math.Pow(b, 2-2*n.H) / (2 * kappa * kappa * a * n.Mean)
	return math.Exp(-exponent), nil
}

// BufferFor inverts OverflowBound: the buffer b such that the bound equals
// the target overflow probability.
func (n NorrosModel) BufferFor(c, target float64) (float64, error) {
	if err := n.Validate(); err != nil {
		return 0, err
	}
	if c <= n.Mean {
		return 0, fmt.Errorf("queue: service rate %g does not exceed the mean %g", c, n.Mean)
	}
	if !(target > 0) || target >= 1 {
		return 0, fmt.Errorf("queue: target overflow probability %g outside (0,1)", target)
	}
	kappa := math.Pow(n.H, n.H) * math.Pow(1-n.H, 1-n.H)
	a := n.Variance / n.Mean
	// exp(-(c-m)^2H b^(2-2H) / K) = target  =>  b = (K ln(1/target) / (c-m)^2H)^(1/(2-2H)).
	k := 2 * kappa * kappa * a * n.Mean
	num := k * math.Log(1/target)
	den := math.Pow(c-n.Mean, 2*n.H)
	return math.Pow(num/den, 1/(2-2*n.H)), nil
}

// FitModel estimates a NorrosModel from a rate series (typically a
// *sampled* reconstruction: the sampled mean and variance plus a Hurst
// estimate), so downstream dimensioning can run on monitor output.
func FitModel(f []float64, h float64) (NorrosModel, error) {
	if len(f) < 2 {
		return NorrosModel{}, fmt.Errorf("queue: series of length %d too short", len(f))
	}
	m := NorrosModel{Mean: stats.Mean(f), Variance: stats.Variance(f), H: h}
	if err := m.Validate(); err != nil {
		return NorrosModel{}, err
	}
	return m, nil
}
