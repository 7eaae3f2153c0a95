package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/stats"
)

// MeanRow is one sampling rate's mean estimates across techniques.
// Grand means over instances are unbiased but dominated by whether an
// instance caught one of the rare giant bursts, so the *median* instance —
// what a single deployed monitor typically reports — is the statistic the
// figures print. Both are retained.
type MeanRow struct {
	Rate          float64
	Systematic    float64 // grand mean over instances
	SystematicMed float64 // median instance mean
	Simple        float64
	SimpleMed     float64
	BSS           float64 // NaN when the figure has no BSS series
	BSSMed        float64
	BSS2          float64 // second parameter set (Figures 12/13)
	BSS2Med       float64
	Overhead      float64 // BSS qualified/base ratio (Figures 18/19)
	EtaUsed       float64 // the eta the BSS design assumed
	LUsed         int
	EpsUsed       float64
}

// meanSweepConfig drives meanSweep.
type meanSweepConfig struct {
	instances int
	// bssFor returns up to two BSS configurations for the given rate and
	// measured systematic eta; nil disables that series.
	bssFor func(rate float64, interval int, sysEta float64) (*core.BSS, *core.BSS, MeanRow)
}

// meanSweep measures grand-mean estimates per rate for systematic, simple
// random and optional BSS configurations.
func meanSweep(f []float64, mean float64, rates []float64, cfg meanSweepConfig) ([]MeanRow, error) {
	rows := make([]MeanRow, 0, len(rates))
	for ri, rate := range rates {
		interval, err := core.IntervalForRate(rate)
		if err != nil {
			return nil, err
		}
		n := len(f) / interval
		if n < 2 {
			continue
		}
		sy, err := core.RunInstances(f, mean, cfg.instances, core.SystematicInstances(interval))
		if err != nil {
			return nil, fmt.Errorf("systematic at rate %g: %w", rate, err)
		}
		ran, err := core.RunInstances(f, mean, cfg.instances, core.SimpleRandomInstances(n, uint64(5000+ri)))
		if err != nil {
			return nil, fmt.Errorf("simple random at rate %g: %w", rate, err)
		}
		row := MeanRow{Rate: rate, Systematic: sy.GrandMean, Simple: ran.GrandMean,
			BSS: math.NaN(), BSSMed: math.NaN(), BSS2: math.NaN(), BSS2Med: math.NaN(), Overhead: math.NaN()}
		row.SystematicMed, _ = stats.Median(sy.Means)
		row.SimpleMed, _ = stats.Median(ran.Means)
		if cfg.bssFor != nil {
			// The design sees the *typical* (median) systematic bias, which
			// is what an operator estimating eta online would face.
			medEta := core.Eta(row.SystematicMed, mean)
			b1, b2, meta := cfg.bssFor(rate, interval, medEta)
			row.EtaUsed, row.LUsed, row.EpsUsed = meta.EtaUsed, meta.LUsed, meta.EpsUsed
			if b1 != nil {
				st, err := core.RunInstances(f, mean, cfg.instances, core.BSSInstances(*b1))
				if err != nil {
					return nil, fmt.Errorf("BSS at rate %g: %w", rate, err)
				}
				row.BSS = st.GrandMean
				row.BSSMed, _ = stats.Median(st.Means)
				row.Overhead = st.AvgOverhead
			}
			if b2 != nil {
				st, err := core.RunInstances(f, mean, cfg.instances, core.BSSInstances(*b2))
				if err != nil {
					return nil, fmt.Errorf("BSS(2) at rate %g: %w", rate, err)
				}
				row.BSS2 = st.GrandMean
				row.BSS2Med, _ = stats.Median(st.Means)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig06Result reproduces Figure 6: sampled mean vs real mean across rates
// on both workloads — the under-estimation phenomenon.
type Fig06Result struct {
	Synthetic []MeanRow
	Real      []MeanRow
	SynMean   float64
	RealMean  float64
	Instances int
}

// Fig06 runs the mean sweep without BSS.
func Fig06(s Scale) (*Fig06Result, error) {
	res := &Fig06Result{Instances: instancesFor(s)}
	syn, synInfo, err := SyntheticTrace(s)
	if err != nil {
		return nil, err
	}
	res.SynMean = synInfo.Mean
	res.Synthetic, err = meanSweep(syn, synInfo.Mean, ratesFor(len(syn), minSamplesFor(s)), meanSweepConfig{instances: res.Instances})
	if err != nil {
		return nil, fmt.Errorf("experiments: fig06 synthetic: %w", err)
	}
	real, realInfo, err := RealTrace(s)
	if err != nil {
		return nil, err
	}
	res.RealMean = realInfo.Mean
	res.Real, err = meanSweep(real, realInfo.Mean, ratesFor(len(real), minSamplesFor(s)), meanSweepConfig{instances: res.Instances})
	if err != nil {
		return nil, fmt.Errorf("experiments: fig06 real: %w", err)
	}
	return res, nil
}

// Render implements Renderer.
func (r *Fig06Result) Render() string {
	out := ""
	for i, panel := range []struct {
		name string
		rows []MeanRow
		mean float64
	}{{"synthetic", r.Synthetic, r.SynMean}, {"real", r.Real, r.RealMean}} {
		t := newTable(fmt.Sprintf("Figure 6(%c): typical (median-instance) sampled vs real mean, %s trace (real mean %s)", 'a'+i, panel.name, fnum(panel.mean)),
			"rate", "systematic", "simple", "real mean")
		for _, row := range panel.rows {
			t.addRow(fnum(row.Rate), fnum(row.SystematicMed), fnum(row.SimpleMed), fnum(panel.mean))
		}
		out += t.String() + "\n"
	}
	return out
}

// staticBSSFigure is shared by Figures 12 and 13: two fixed "unbiased"
// (L, epsilon) parameter pairs compared against systematic and simple
// random sampling.
func staticBSSFigure(s Scale, useReal bool, pairs [2][2]float64) (*Fig12Result, error) {
	f, info, err := traceFor(s, useReal)
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{Mean: info.Mean, Pairs: pairs, Trace: info.Name, Instances: instancesFor(s)}
	res.Rows, err = meanSweep(f, info.Mean, ratesFor(len(f), minSamplesFor(s)), meanSweepConfig{
		instances: res.Instances,
		bssFor: func(rate float64, interval int, sysEta float64) (*core.BSS, *core.BSS, MeanRow) {
			b1 := &core.BSS{Interval: interval, L: int(pairs[0][0]), Epsilon: pairs[0][1]}
			b2 := &core.BSS{Interval: interval, L: int(pairs[1][0]), Epsilon: pairs[1][1]}
			return b1, b2, MeanRow{LUsed: int(pairs[0][0]), EpsUsed: pairs[0][1]}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: unbiased BSS sweep (%s): %w", info.Name, err)
	}
	return res, nil
}

// Fig12Result reproduces Figure 12 (and 13 via trace choice): the
// "unbiased BSS" settings against the classic samplers.
type Fig12Result struct {
	Trace     string
	Mean      float64
	Pairs     [2][2]float64 // {L, epsilon} x2
	Rows      []MeanRow
	Instances int
}

// Fig12 uses the paper's synthetic unbiased pairs (L=10, eps=2.55),
// (L=8, eps=2.28).
func Fig12(s Scale) (*Fig12Result, error) {
	return staticBSSFigure(s, false, [2][2]float64{{10, 2.55}, {8, 2.28}})
}

// Fig13 uses the paper's real-trace unbiased pairs (L=10, eps=1.809),
// (L=8, eps=1.68).
func Fig13(s Scale) (*Fig12Result, error) {
	return staticBSSFigure(s, true, [2][2]float64{{10, 1.809}, {8, 1.68}})
}

// Render implements Renderer.
func (r *Fig12Result) Render() string {
	t := newTable(fmt.Sprintf("Figures 12/13 (unbiased BSS, median instances), %s trace, real mean %s; pairs (L=%g,eps=%g) and (L=%g,eps=%g)",
		r.Trace, fnum(r.Mean), r.Pairs[0][0], r.Pairs[0][1], r.Pairs[1][0], r.Pairs[1][1]),
		"rate", "systematic", "simple", "bss(pair1)", "bss(pair2)", "real")
	for _, row := range r.Rows {
		t.addRow(fnum(row.Rate), fnum(row.SystematicMed), fnum(row.SimpleMed), fnum(row.BSSMed), fnum(row.BSS2Med), fnum(r.Mean))
	}
	return t.String()
}

// Fig16Result reproduces Figures 16/17: biased BSS with per-rate design
// from the ground-truth eta (known because we hold the full trace), in the
// two modes the paper plots: L fixed (epsilon solved) and epsilon fixed
// (L solved).
type Fig16Result struct {
	Trace     string
	Mean      float64
	FixedL    int
	RowsModeA []MeanRow // L fixed, epsilon tuned
	RowsModeB []MeanRow // epsilon = 1, L tuned
	Instances int
}

// biasedBSSFigure is shared by Figures 16 and 17.
func biasedBSSFigure(s Scale, useReal bool, fixedL int) (*Fig16Result, error) {
	f, info, err := traceFor(s, useReal)
	if err != nil {
		return nil, err
	}
	design, err := core.NewBSSDesign(info.MarginAlpha)
	if err != nil {
		return nil, fmt.Errorf("experiments: biased BSS design: %w", err)
	}
	res := &Fig16Result{Trace: info.Name, Mean: info.Mean, FixedL: fixedL, Instances: instancesFor(s)}
	rates := ratesFor(len(f), minSamplesFor(s))
	// Mode A: L fixed, epsilon tuned per rate from the measured eta.
	res.RowsModeA, err = meanSweep(f, info.Mean, rates, meanSweepConfig{
		instances: res.Instances,
		bssFor: func(rate float64, interval int, sysEta float64) (*core.BSS, *core.BSS, MeanRow) {
			eta := clampEta(sysEta)
			eps, err := design.EpsForTarget(float64(fixedL), eta, 1)
			if err != nil {
				// Target unreachable at this L: fall back to a high
				// threshold, which degenerates toward plain systematic.
				eps = 3 * design.EpsilonFloor()
			}
			return &core.BSS{Interval: interval, L: fixedL, Epsilon: eps},
				nil, MeanRow{EtaUsed: eta, LUsed: fixedL, EpsUsed: eps}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: fig16 mode A (%s): %w", info.Name, err)
	}
	// Mode B: epsilon = 1, L tuned per rate (Eq. 23).
	res.RowsModeB, err = meanSweep(f, info.Mean, rates, meanSweepConfig{
		instances: res.Instances,
		bssFor: func(rate float64, interval int, sysEta float64) (*core.BSS, *core.BSS, MeanRow) {
			eta := clampEta(sysEta)
			lf, err := design.LUnbiased(1.0, eta)
			l := 0
			if err == nil {
				l = int(lf + 0.5)
			}
			if l > interval-1 {
				l = interval - 1
			}
			return &core.BSS{Interval: interval, L: l, Epsilon: 1.0},
				nil, MeanRow{EtaUsed: eta, LUsed: l, EpsUsed: 1.0}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: fig16 mode B (%s): %w", info.Name, err)
	}
	return res, nil
}

// clampEta keeps a measured eta inside the design formulas' domain.
func clampEta(eta float64) float64 {
	if math.IsNaN(eta) || eta < 0.001 {
		return 0.001
	}
	if eta > 0.95 {
		return 0.95
	}
	return eta
}

// Fig16 is the synthetic-trace biased-BSS figure (paper: L=10 fixed, and
// eps=1 fixed).
func Fig16(s Scale) (*Fig16Result, error) { return biasedBSSFigure(s, false, 10) }

// Fig17 is the real-trace biased-BSS figure (paper: L=30 fixed, and eps=1
// fixed).
func Fig17(s Scale) (*Fig16Result, error) { return biasedBSSFigure(s, true, 30) }

// Render implements Renderer.
func (r *Fig16Result) Render() string {
	out := ""
	for i, panel := range []struct {
		name string
		rows []MeanRow
	}{{fmt.Sprintf("L=%d fixed, eps tuned", r.FixedL), r.RowsModeA}, {"eps=1 fixed, L tuned", r.RowsModeB}} {
		t := newTable(fmt.Sprintf("Figures 16/17(%c): biased BSS (%s), median instances, %s trace, real mean %s", 'a'+i, panel.name, r.Trace, fnum(r.Mean)),
			"rate", "systematic", "simple", "bss", "real", "eta used", "L", "eps")
		for _, row := range panel.rows {
			t.addRow(fnum(row.Rate), fnum(row.SystematicMed), fnum(row.SimpleMed), fnum(row.BSSMed),
				fnum(r.Mean), fnum(row.EtaUsed), fmt.Sprintf("%d", row.LUsed), fnum(row.EpsUsed))
		}
		out += t.String() + "\n"
	}
	return out
}
