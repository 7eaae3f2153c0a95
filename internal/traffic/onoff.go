// Package traffic implements the traffic-model substrate of the
// reproduction: the superposed heavy-tailed ON/OFF aggregate the paper
// generates with ns-2, an OD-flow packet-trace synthesizer standing in
// for the proprietary Bell Labs traces, and the binning that turns
// packet traces into the rate process f(t) the sampling techniques
// operate on.
package traffic

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/dist"
)

// OnOffConfig describes a superposition of N ON/OFF sources with
// heavy-tailed (Pareto) sojourn times. With ON/OFF tail index
// 1 < alpha < 2 the aggregate is asymptotically self-similar with
// H = (3 - alpha)/2 (Willinger et al.), which is exactly how the paper
// produces its "synthetic traces with Hurst parameter 0.80" in ns-2.
type OnOffConfig struct {
	Sources  int     // number of superposed sources (e.g. 64)
	AlphaOn  float64 // Pareto shape of ON periods, in (1, 2)
	AlphaOff float64 // Pareto shape of OFF periods, in (1, 2)
	MeanOn   float64 // mean ON duration in ticks (> 0)
	MeanOff  float64 // mean OFF duration in ticks (> 0)
	Rate     float64 // mean emission per source per tick while ON (> 0)
	Ticks    int     // length of the generated series; Ticks/8 more are simulated first and discarded

	// RateAlpha, when nonzero, draws an independent Pareto(RateAlpha)
	// emission rate (mean Rate) for every ON burst instead of the constant
	// Rate. This models heterogeneous source bandwidths and gives the
	// aggregate the heavy-tailed *marginal* observed on real links (the
	// paper's Figure 8, where f(t) itself fits a Pareto with alpha 1.5
	// synthetic / 1.71 real) — the property that makes the mean hard to
	// sample. Must lie in (1, 2] when set.
	RateAlpha float64
}

// Validate checks the configuration.
func (c OnOffConfig) Validate() error {
	switch {
	case c.Sources < 1:
		return fmt.Errorf("traffic: Sources=%d must be >= 1", c.Sources)
	case !(c.AlphaOn > 1) || c.AlphaOn >= 2:
		return fmt.Errorf("traffic: AlphaOn=%g must lie in (1,2)", c.AlphaOn)
	case !(c.AlphaOff > 1) || c.AlphaOff >= 2:
		return fmt.Errorf("traffic: AlphaOff=%g must lie in (1,2)", c.AlphaOff)
	case !(c.MeanOn > 0) || !(c.MeanOff > 0):
		return fmt.Errorf("traffic: mean ON/OFF durations must be positive (got %g, %g)", c.MeanOn, c.MeanOff)
	case !(c.Rate > 0):
		return fmt.Errorf("traffic: Rate=%g must be positive", c.Rate)
	case c.Ticks < 1:
		return fmt.Errorf("traffic: Ticks=%d must be >= 1", c.Ticks)
	case c.RateAlpha != 0 && (!(c.RateAlpha > 1) || c.RateAlpha > 2):
		return fmt.Errorf("traffic: RateAlpha=%g must be 0 or in (1,2]", c.RateAlpha)
	}
	return nil
}

// Hurst returns the asymptotic Hurst parameter (3 - min(alphaOn, alphaOff))/2
// of the aggregate.
func (c OnOffConfig) Hurst() float64 {
	a := c.AlphaOn
	if c.AlphaOff < a {
		a = c.AlphaOff
	}
	return (3 - a) / 2
}

// TheoreticalMean returns the expected per-tick aggregate emission,
// Sources * Rate * MeanOn / (MeanOn + MeanOff).
func (c OnOffConfig) TheoreticalMean() float64 {
	return float64(c.Sources) * c.Rate * c.MeanOn / (c.MeanOn + c.MeanOff)
}

// GenerateOnOff simulates the superposition and returns the aggregate
// per-tick series f(t), t = 0..Ticks-1.
func GenerateOnOff(cfg OnOffConfig, rng *rand.Rand) ([]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	warmup := cfg.Ticks / 8
	onDist, err := dist.NewPareto(cfg.AlphaOn, cfg.MeanOn*(cfg.AlphaOn-1)/cfg.AlphaOn)
	if err != nil {
		return nil, fmt.Errorf("traffic: ON distribution: %w", err)
	}
	offDist, err := dist.NewPareto(cfg.AlphaOff, cfg.MeanOff*(cfg.AlphaOff-1)/cfg.AlphaOff)
	if err != nil {
		return nil, fmt.Errorf("traffic: OFF distribution: %w", err)
	}
	var rateDist dist.Pareto
	if cfg.RateAlpha != 0 {
		rateDist, err = dist.NewPareto(cfg.RateAlpha, cfg.Rate*(cfg.RateAlpha-1)/cfg.RateAlpha)
		if err != nil {
			return nil, fmt.Errorf("traffic: burst-rate distribution: %w", err)
		}
	}
	burstRate := func() float64 {
		if cfg.RateAlpha == 0 {
			return cfg.Rate
		}
		return rateDist.Sample(rng)
	}
	total := warmup + cfg.Ticks
	out := make([]float64, cfg.Ticks)
	for s := 0; s < cfg.Sources; s++ {
		// Random initial phase: start each source in a random state a
		// random way through its sojourn to avoid synchronized starts.
		on := rng.Float64() < cfg.MeanOn/(cfg.MeanOn+cfg.MeanOff)
		var remaining float64
		if on {
			remaining = onDist.Sample(rng) * rng.Float64()
		} else {
			remaining = offDist.Sample(rng) * rng.Float64()
		}
		rate := burstRate()
		for t := 0; t < total; {
			steps := int(math.Ceil(remaining))
			if steps < 1 {
				steps = 1
			}
			if t+steps > total {
				steps = total - t
			}
			if on {
				for i := t; i < t+steps; i++ {
					if i >= warmup {
						out[i-warmup] += rate
					}
				}
			}
			t += steps
			on = !on
			if on {
				remaining = onDist.Sample(rng)
				rate = burstRate()
			} else {
				remaining = offDist.Sample(rng)
			}
		}
	}
	return out, nil
}
