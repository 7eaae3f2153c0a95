package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/stats"
)

// Fig18Result reproduces Figures 18/19: fully-online BSS — epsilon preset
// to 1, eta estimated from the sampling rate alone via Eq. (35) with the
// trace-calibrated Cs, L solved from Eq. (23), threshold adapted from the
// running mean — reporting the sampled mean (panel a) and the overhead
// (panel b).
type Fig18Result struct {
	Trace     string
	Mean      float64
	Cs        float64
	Rows      []MeanRow
	Instances int
}

// onlineBSSFigure is shared by Figures 18 and 19.
func onlineBSSFigure(s Scale, useReal bool) (*Fig18Result, error) {
	f, info, err := traceFor(s, useReal)
	if err != nil {
		return nil, err
	}
	design, err := core.NewBSSDesign(info.MarginAlpha)
	if err != nil {
		return nil, fmt.Errorf("experiments: online BSS design: %w", err)
	}
	res := &Fig18Result{Trace: info.Name, Mean: info.Mean, Cs: info.Cs, Instances: instancesFor(s)}
	res.Rows, err = meanSweep(f, info.Mean, ratesFor(len(f), minSamplesFor(s)), meanSweepConfig{
		instances: res.Instances,
		bssFor: func(rate float64, interval int, sysEta float64) (*core.BSS, *core.BSS, MeanRow) {
			l, eta, err := design.DesignForRate(rate, 1.0, info.Cs, 50)
			if err != nil {
				l, eta = 0, 0
			}
			if l > interval-1 {
				l = interval - 1
			}
			return &core.BSS{Interval: interval, L: l, Epsilon: 1.0},
				nil, MeanRow{EtaUsed: eta, LUsed: l, EpsUsed: 1.0}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: online BSS sweep (%s): %w", info.Name, err)
	}
	return res, nil
}

// Fig18 is the synthetic-trace online-BSS figure.
func Fig18(s Scale) (*Fig18Result, error) { return onlineBSSFigure(s, false) }

// Fig19 is the real-trace online-BSS figure.
func Fig19(s Scale) (*Fig18Result, error) { return onlineBSSFigure(s, true) }

// Render implements Renderer.
func (r *Fig18Result) Render() string {
	t := newTable(fmt.Sprintf("Figures 18/19(a): online BSS (eps=1, eta from Eq.35 with Cs=%s), median instances, %s trace, real mean %s",
		fnum(r.Cs), r.Trace, fnum(r.Mean)),
		"rate", "systematic", "simple", "bss", "real", "eta(r)", "L")
	for _, row := range r.Rows {
		t.addRow(fnum(row.Rate), fnum(row.SystematicMed), fnum(row.SimpleMed), fnum(row.BSSMed),
			fnum(r.Mean), fnum(row.EtaUsed), fmt.Sprintf("%d", row.LUsed))
	}
	t2 := newTable(fmt.Sprintf("Figures 18/19(b): BSS sampling overhead (qualified/base), %s trace", r.Trace),
		"rate", "overhead")
	for _, row := range r.Rows {
		t2.addRow(fnum(row.Rate), fnum(row.Overhead))
	}
	return t.String() + "\n" + t2.String()
}

// EfficiencyRow is one rate's efficiency per technique.
type EfficiencyRow struct {
	Rate       float64
	Systematic float64
	Simple     float64
	BSS        float64
}

// Fig20Result reproduces Figure 20: the efficiency e = (1-eta)/log10(Nt)
// of the three techniques on the synthetic trace, plus the averages the
// paper headlines (BSS 0.37 vs systematic 0.26 vs simple random 0.30,
// i.e. +42% and +23%).
type Fig20Result struct {
	Rows          []EfficiencyRow
	AvgSystematic float64
	AvgSimple     float64
	AvgBSS        float64
	GainVsSys     float64 // relative efficiency gain of BSS over systematic
	GainVsSimple  float64
	Instances     int
}

// Fig20 measures efficiency across rates with the online BSS design.
func Fig20(s Scale) (*Fig20Result, error) {
	f, info, err := SyntheticTrace(s)
	if err != nil {
		return nil, err
	}
	design, err := core.NewBSSDesign(info.MarginAlpha)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig20: %w", err)
	}
	res := &Fig20Result{Instances: instancesFor(s)}
	for ri, rate := range ratesFor(len(f), minSamplesFor(s)) {
		interval, err := core.IntervalForRate(rate)
		if err != nil {
			return nil, err
		}
		n := len(f) / interval
		if n < 2 {
			continue
		}
		sy, err := core.RunInstances(f, info.Mean, res.Instances, core.SystematicInstances(interval))
		if err != nil {
			return nil, fmt.Errorf("experiments: fig20 systematic: %w", err)
		}
		ran, err := core.RunInstances(f, info.Mean, res.Instances, core.SimpleRandomInstances(n, uint64(7000+ri)))
		if err != nil {
			return nil, fmt.Errorf("experiments: fig20 simple: %w", err)
		}
		l, _, err := design.DesignForRate(rate, 1.0, info.Cs, 50)
		if err != nil {
			l = 0
		}
		if l > interval-1 {
			l = interval - 1
		}
		bss, err := core.RunInstances(f, info.Mean, res.Instances, core.BSSInstances(core.BSS{Interval: interval, L: l, Epsilon: 1.0}))
		if err != nil {
			return nil, fmt.Errorf("experiments: fig20 bss: %w", err)
		}
		// Efficiency of the *typical* deployment: eta from the median
		// instance, Nt from the average kept-sample count.
		medEta := func(st core.InstanceStats) float64 {
			m, err := stats.Median(st.Means)
			if err != nil {
				return math.NaN()
			}
			return core.Eta(m, info.Mean)
		}
		row := EfficiencyRow{
			Rate:       rate,
			Systematic: core.Efficiency(medEta(sy), int(sy.AvgSamples+0.5)),
			Simple:     core.Efficiency(medEta(ran), int(ran.AvgSamples+0.5)),
			BSS:        core.Efficiency(medEta(bss), int(bss.AvgSamples+0.5)),
		}
		if math.IsNaN(row.Systematic) || math.IsNaN(row.Simple) || math.IsNaN(row.BSS) {
			continue
		}
		res.Rows = append(res.Rows, row)
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("experiments: fig20 produced no usable rates")
	}
	for _, row := range res.Rows {
		res.AvgSystematic += row.Systematic / float64(len(res.Rows))
		res.AvgSimple += row.Simple / float64(len(res.Rows))
		res.AvgBSS += row.BSS / float64(len(res.Rows))
	}
	res.GainVsSys = res.AvgBSS/res.AvgSystematic - 1
	res.GainVsSimple = res.AvgBSS/res.AvgSimple - 1
	return res, nil
}

// Render implements Renderer.
func (r *Fig20Result) Render() string {
	t := newTable(fmt.Sprintf(
		"Figure 20: efficiency e=(1-|eta|)/log10(Nt); averages bss=%.3f sys=%.3f simple=%.3f; BSS gain vs sys %.0f%% (paper 42%%), vs simple %.0f%% (paper 23%%)",
		r.AvgBSS, r.AvgSystematic, r.AvgSimple, r.GainVsSys*100, r.GainVsSimple*100),
		"rate", "systematic", "simple", "bss")
	for _, row := range r.Rows {
		t.addRow(fnum(row.Rate), fnum(row.Systematic), fnum(row.Simple), fnum(row.BSS))
	}
	return t.String()
}
