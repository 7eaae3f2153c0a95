package experiments

import (
	"fmt"

	"repro/internal/core"
)

// VarianceRow is one sampling rate's average variance per technique,
// computed exactly (see core.ExactSystematicVariance and friends): on
// heavy-tailed traffic, instance-sampled estimates of E(V) are dominated
// by whether the instances happened to catch the few giant values, so the
// paper's orderings only show cleanly in the exact expectation.
type VarianceRow struct {
	Rate       float64
	Systematic float64
	Stratified float64
	Simple     float64
	BSS        float64 // only filled by Figure 22
	LUsed      int     // BSS extra-sample count (Figure 22)
}

// Fig05Result reproduces Figure 5: the average variance E(V) of the three
// classic techniques versus sampling rate on both workloads.
type Fig05Result struct {
	Synthetic []VarianceRow
	Real      []VarianceRow
}

// varianceSweep computes exact E(V) per rate. When design is non-nil a
// BSS column with the online per-rate design (epsilon = 1, L from Eq. 23
// with the trace's Cs) is included.
func varianceSweep(f []float64, mean float64, rates []float64, design *core.BSSDesign, cs float64) ([]VarianceRow, error) {
	rows := make([]VarianceRow, 0, len(rates))
	for _, rate := range rates {
		interval, err := core.IntervalForRate(rate)
		if err != nil {
			return nil, err
		}
		n := len(f) / interval
		if n < 2 {
			continue
		}
		row := VarianceRow{Rate: rate}
		row.Systematic, err = core.ExactSystematicVariance(f, interval, mean)
		if err != nil {
			return nil, fmt.Errorf("systematic at rate %g: %w", rate, err)
		}
		row.Stratified, err = core.ExactStratifiedVariance(f, interval, mean)
		if err != nil {
			return nil, fmt.Errorf("stratified at rate %g: %w", rate, err)
		}
		row.Simple, err = core.ExactSimpleRandomVariance(f, n, mean)
		if err != nil {
			return nil, fmt.Errorf("simple random at rate %g: %w", rate, err)
		}
		if design != nil {
			l, _, err := design.DesignForRate(rate, 1.0, cs, 50)
			if err != nil {
				l = 0
			}
			if l > interval-1 {
				l = interval - 1
			}
			row.LUsed = l
			row.BSS, err = core.ExactBSSVariance(f, core.BSS{Interval: interval, L: l, Epsilon: 1.0}, mean)
			if err != nil {
				return nil, fmt.Errorf("BSS at rate %g: %w", rate, err)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig05 runs the exact variance sweep on both traces.
func Fig05(s Scale) (*Fig05Result, error) {
	res := &Fig05Result{}
	syn, synInfo, err := SyntheticTrace(s)
	if err != nil {
		return nil, err
	}
	res.Synthetic, err = varianceSweep(syn, synInfo.Mean, ratesFor(len(syn), minSamplesFor(s)), nil, 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig05 synthetic: %w", err)
	}
	real, realInfo, err := RealTrace(s)
	if err != nil {
		return nil, err
	}
	res.Real, err = varianceSweep(real, realInfo.Mean, ratesFor(len(real), minSamplesFor(s)), nil, 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig05 real: %w", err)
	}
	return res, nil
}

// Render implements Renderer.
func (r *Fig05Result) Render() string {
	out := ""
	for i, panel := range []struct {
		name string
		rows []VarianceRow
	}{{"synthetic", r.Synthetic}, {"real", r.Real}} {
		t := newTable(fmt.Sprintf("Figure 5(%c): exact average variance E(V) vs rate, %s trace; expect sys <= strat <= simple",
			'a'+i, panel.name),
			"rate", "systematic", "stratified", "simple-random")
		for _, row := range panel.rows {
			t.addRow(fnum(row.Rate), fnum(row.Systematic), fnum(row.Stratified), fnum(row.Simple))
		}
		out += t.String() + "\n"
	}
	return out
}

// Fig22Result reproduces Figure 22: the average variance of BSS against
// plain systematic sampling — they nearly coincide, since BSS's base
// schedule is systematic and the designed extra-sample load is light.
type Fig22Result struct {
	Synthetic []VarianceRow
	Real      []VarianceRow
}

// Fig22 runs the exact BSS-vs-systematic variance sweep on both traces.
func Fig22(s Scale) (*Fig22Result, error) {
	res := &Fig22Result{}
	syn, synInfo, err := SyntheticTrace(s)
	if err != nil {
		return nil, err
	}
	synDesign, err := core.NewBSSDesign(synInfo.MarginAlpha)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig22: %w", err)
	}
	res.Synthetic, err = varianceSweep(syn, synInfo.Mean, ratesFor(len(syn), minSamplesFor(s)), &synDesign, synInfo.Cs)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig22 synthetic: %w", err)
	}
	real, realInfo, err := RealTrace(s)
	if err != nil {
		return nil, err
	}
	realDesign, err := core.NewBSSDesign(realInfo.MarginAlpha)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig22: %w", err)
	}
	res.Real, err = varianceSweep(real, realInfo.Mean, ratesFor(len(real), minSamplesFor(s)), &realDesign, realInfo.Cs)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig22 real: %w", err)
	}
	return res, nil
}

// Render implements Renderer.
func (r *Fig22Result) Render() string {
	out := ""
	for i, panel := range []struct {
		name string
		rows []VarianceRow
	}{{"synthetic", r.Synthetic}, {"real", r.Real}} {
		t := newTable(fmt.Sprintf("Figure 22(%c): exact average variance, BSS vs systematic, %s trace", 'a'+i, panel.name),
			"rate", "systematic", "bss", "L")
		for _, row := range panel.rows {
			t.addRow(fnum(row.Rate), fnum(row.Systematic), fnum(row.BSS), fmt.Sprintf("%d", row.LUsed))
		}
		out += t.String() + "\n"
	}
	return out
}
