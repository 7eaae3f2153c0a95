package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/lrd"
	"repro/internal/traffic"
)

// Fig21Result reproduces Figure 21: the beta (and hence Hurst parameter)
// of the BSS-sampled process matches the original across the LRD range,
// estimated with the wavelet (Abry-Veitch) tool the paper cites.
type Fig21Result struct {
	Betas        []float64 // design beta of the generated traffic
	OriginalHats []float64 // wavelet estimate on the original series
	SampledHats  []float64 // wavelet estimate on the BSS-sampled series
	Interval     int
}

// Fig21 generates ON/OFF traffic per beta (alpha_on = beta + 1), samples
// it with BSS and compares wavelet beta estimates.
func Fig21(s Scale) (*Fig21Result, error) {
	ticks := 1 << 17
	interval := 8
	if s == ScaleFull {
		ticks = 1 << 20
		interval = 16
	}
	res := &Fig21Result{Interval: interval}
	for beta := 0.2; beta < 0.85; beta += 0.2 {
		alpha := beta + 1 // the paper's on/off shape rule
		cfg := traffic.OnOffConfig{
			Sources: 32, AlphaOn: alpha, AlphaOff: alpha,
			MeanOn: 10, MeanOff: 30, Rate: 1, Ticks: ticks,
		}
		f, err := traffic.GenerateOnOff(cfg, dist.NewRand(uint64(9000+int(beta*100))))
		if err != nil {
			return nil, fmt.Errorf("experiments: fig21 beta=%.1f: %w", beta, err)
		}
		orig, err := lrd.HurstWavelet(f, lrd.WaveletOptions{JMin: 4})
		if err != nil {
			return nil, fmt.Errorf("experiments: fig21 original estimate: %w", err)
		}
		bss, err := core.BSS{Interval: interval, L: 4, Epsilon: 1.0}.Kernel()
		if err != nil {
			return nil, fmt.Errorf("experiments: fig21 sampling: %w", err)
		}
		samples, err := core.Collect(bss, f)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig21 sampling: %w", err)
		}
		g := core.SampledSeries(samples)
		sampled, err := lrd.HurstWavelet(g, lrd.WaveletOptions{JMin: 2})
		if err != nil {
			return nil, fmt.Errorf("experiments: fig21 sampled estimate: %w", err)
		}
		res.Betas = append(res.Betas, beta)
		res.OriginalHats = append(res.OriginalHats, clampBeta(orig.Beta))
		res.SampledHats = append(res.SampledHats, clampBeta(sampled.Beta))
	}
	return res, nil
}

// clampBeta keeps estimator noise inside the meaningful (0, 1) band for
// reporting.
func clampBeta(b float64) float64 {
	return math.Max(0.01, math.Min(b, 1.2))
}

// Render implements Renderer.
func (r *Fig21Result) Render() string {
	t := newTable(fmt.Sprintf("Figure 21: wavelet beta of BSS-sampled process (C=%d) vs original", r.Interval),
		"design beta", "beta (original)", "beta (BSS-sampled)", "difference")
	for i := range r.Betas {
		t.addRow(fnum(r.Betas[i]), fnum(r.OriginalHats[i]), fnum(r.SampledHats[i]),
			fnum(math.Abs(r.OriginalHats[i]-r.SampledHats[i])))
	}
	return t.String()
}
