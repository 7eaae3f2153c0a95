package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	ids := Names()
	if len(ids) != 21 {
		t.Fatalf("registry has %d figures, want 21 (fig02..fig22)", len(ids))
	}
	if ids[0] != "fig02" || ids[len(ids)-1] != "fig22" {
		t.Errorf("unexpected id range: %s .. %s", ids[0], ids[len(ids)-1])
	}
	for _, id := range ids {
		if r, ok := Lookup(id); !ok || r == nil {
			t.Errorf("no runner for %s", id)
		}
	}
}

func TestScaleString(t *testing.T) {
	if ScaleSmall.String() != "small" || ScaleFull.String() != "full" {
		t.Error("Scale.String broken")
	}
}

func TestTraces(t *testing.T) {
	syn, synInfo, err := SyntheticTrace(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(syn) != 1<<17 {
		t.Fatalf("synthetic length %d, want %d", len(syn), 1<<17)
	}
	// Rank-transformed toward the paper's 5.68 kB/s mean; the realized
	// mean deviates by the finite-sample fluctuation of the Pareto top
	// order statistics.
	if math.Abs(synInfo.Mean-5.68)/5.68 > 0.05 {
		t.Errorf("synthetic mean %g, want within 5%% of 5.68", synInfo.Mean)
	}
	if synInfo.Cs <= 0 {
		t.Errorf("synthetic Cs = %g, want positive", synInfo.Cs)
	}
	real, realInfo, err := RealTrace(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(real) == 0 {
		t.Fatal("empty real trace")
	}
	// Target mean rate 1.21e4 bytes/s within a loose band (binning and
	// truncation shift it slightly).
	if realInfo.Mean < 0.5*1.21e4 || realInfo.Mean > 2*1.21e4 {
		t.Errorf("real mean %g, want ~1.21e4", realInfo.Mean)
	}
	// Caching returns identical slices.
	syn2, _, err := SyntheticTrace(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if &syn[0] != &syn2[0] {
		t.Error("synthetic trace not cached")
	}
}

func TestRatesFor(t *testing.T) {
	rates := ratesFor(1<<20, 10)
	if len(rates) != 5 {
		t.Errorf("full-size trace should allow all 5 rates, got %v", rates)
	}
	rates = ratesFor(1000, 10)
	for _, r := range rates {
		if r*1000 < 10 {
			t.Errorf("rate %g leaves fewer than 10 samples", r)
		}
	}
}

func TestFig02(t *testing.T) {
	r, err := Fig02(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	// Panel (a): fitted slope near -beta with truncation bias (paper
	// observes -0.08 for beta = 0.1).
	if r.FitA.Slope < -0.16 || r.FitA.Slope > -0.03 {
		t.Errorf("panel (a) slope = %g, want ~-0.1", r.FitA.Slope)
	}
	// Panel (b): betaHat tracks beta across the range.
	for i := range r.Betas {
		if math.Abs(r.Betas[i]-r.BetaHats[i]) > 0.06 {
			t.Errorf("beta=%g: betaHat=%g", r.Betas[i], r.BetaHats[i])
		}
	}
	if !strings.Contains(r.Render(), "Figure 2(a)") {
		t.Error("render missing title")
	}
}

func TestFig03(t *testing.T) {
	r, err := Fig03(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Betas {
		if math.Abs(r.Betas[i]-r.StratifiedHats[i]) > 0.06 {
			t.Errorf("stratified beta=%g: hat=%g", r.Betas[i], r.StratifiedHats[i])
		}
		if math.Abs(r.Betas[i]-r.BernoulliHats[i]) > 0.06 {
			t.Errorf("bernoulli beta=%g: hat=%g", r.Betas[i], r.BernoulliHats[i])
		}
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig04(t *testing.T) {
	r, err := Fig04(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if !r.AllNonnegative {
		t.Error("delta_tau went negative — Theorem 2's hypothesis must hold")
	}
	for j := range r.Betas {
		for i := 1; i < len(r.Taus); i++ {
			if r.Deltas[j][i] > r.Deltas[j][i-1]+1e-12 {
				t.Errorf("beta=%g: delta not decreasing at tau=%d", r.Betas[j], r.Taus[i])
			}
		}
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig05Theorem2Ordering(t *testing.T) {
	r, err := Fig05(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Synthetic) == 0 || len(r.Real) == 0 {
		t.Fatal("empty sweeps")
	}
	for _, rows := range [][]VarianceRow{r.Synthetic, r.Real} {
		for _, row := range rows {
			// Exact Theorem 2 ordering (small slack for local ACF
			// non-convexity on a single realization).
			if row.Systematic > row.Stratified*1.05 {
				t.Errorf("rate %g: E(Vsy)=%g > E(Vrs)=%g", row.Rate, row.Systematic, row.Stratified)
			}
			if row.Stratified > row.Simple*1.05 {
				t.Errorf("rate %g: E(Vrs)=%g > E(Vran)=%g", row.Rate, row.Stratified, row.Simple)
			}
			if row.Systematic > row.Simple*1.02 {
				t.Errorf("rate %g: E(Vsy)=%g > E(Vran)=%g", row.Rate, row.Systematic, row.Simple)
			}
		}
	}
	if !strings.Contains(r.Render(), "Figure 5(a)") || !strings.Contains(r.Render(), "Figure 5(b)") {
		t.Error("render missing panels")
	}
}

func TestFig06Underestimation(t *testing.T) {
	r, err := Fig06(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	// At the lowest rate the *typical* (median-instance) sampled mean
	// should sit below the real mean; the grand mean is unbiased in
	// expectation, so a single lucky giant-burst catch can lift it.
	low := r.Synthetic[0]
	if low.SystematicMed >= r.SynMean {
		t.Errorf("synthetic lowest-rate median systematic mean %g not below real %g", low.SystematicMed, r.SynMean)
	}
	lowR := r.Real[0]
	if lowR.SystematicMed >= r.RealMean {
		t.Errorf("real lowest-rate median systematic mean %g not below real %g", lowR.SystematicMed, r.RealMean)
	}
	// And the under-estimation should shrink as the rate grows.
	last := r.Synthetic[len(r.Synthetic)-1]
	if math.Abs(last.SystematicMed-r.SynMean) > math.Abs(low.SystematicMed-r.SynMean)+1e-9 {
		t.Errorf("bias did not shrink with rate: %g -> %g (real %g)", low.SystematicMed, last.SystematicMed, r.SynMean)
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig07BurstsHeavyTailed(t *testing.T) {
	r, err := Fig07(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Panels) != 2 {
		t.Fatalf("want 2 panels, got %d", len(r.Panels))
	}
	for _, p := range r.Panels {
		if p.Alpha < 0.5 || p.Alpha > 3.5 {
			t.Errorf("%s: burst tail alpha %g outside the heavy regime", p.Trace, p.Alpha)
		}
		if p.R2 < 0.7 {
			t.Errorf("%s: poor log-log fit R2=%g", p.Trace, p.R2)
		}
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig08MarginalsPareto(t *testing.T) {
	r, err := Fig08(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Panels {
		if p.Alpha < 1.0 || p.Alpha > 2.6 {
			t.Errorf("%s: marginal alpha %g, want near the design (1.5/1.71)", p.Trace, p.Alpha)
		}
		if p.R2 < 0.9 {
			t.Errorf("%s: poor marginal fit R2=%g", p.Trace, p.R2)
		}
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig09Monotone(t *testing.T) {
	r, err := Fig09(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	// L grows with eta at fixed eps.
	for j := range r.Epses {
		for i := 1; i < len(r.Etas); i++ {
			if !(r.L[i][j] > r.L[i-1][j]) {
				t.Errorf("L not increasing in eta at eps=%g", r.Epses[j])
			}
		}
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig10XiCrossesOne(t *testing.T) {
	r, err := Fig10(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range r.Ls {
		minV, maxV := math.Inf(1), math.Inf(-1)
		for _, v := range r.Xi[i] {
			minV = math.Min(minV, v)
			maxV = math.Max(maxV, v)
		}
		if !(minV < 1 && maxV > 1) {
			t.Errorf("L=%g: xi range [%g, %g] does not cross 1", l, minV, maxV)
		}
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig11Roots(t *testing.T) {
	r, err := Fig11(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if !(r.Eps1 < r.Eps2) {
		t.Fatalf("roots out of order: %g, %g", r.Eps1, r.Eps2)
	}
	if math.Abs(r.Eps1-r.Floor) > 0.2 {
		t.Errorf("eps1=%g should sit near the floor %g", r.Eps1, r.Floor)
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig12Fig13Run(t *testing.T) {
	for name, fn := range map[string]func(Scale) (*Fig12Result, error){"fig12": Fig12, "fig13": Fig13} {
		r, err := fn(ScaleSmall)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Rows) == 0 {
			t.Fatalf("%s: no rows", name)
		}
		for _, row := range r.Rows {
			if math.IsNaN(row.BSSMed) || math.IsNaN(row.BSS2Med) {
				t.Errorf("%s rate %g: missing BSS series", name, row.Rate)
			}
			// Unbiased BSS lifts the estimate (or leaves it) relative to
			// plain systematic — qualified samples are never negative.
			if row.BSSMed < row.SystematicMed*0.98 {
				t.Errorf("%s rate %g: BSS median %g fell below systematic %g", name, row.Rate, row.BSSMed, row.SystematicMed)
			}
		}
		if r.Render() == "" {
			t.Error("empty render")
		}
	}
}

func TestFig14ContoursMonotoneInL(t *testing.T) {
	r, err := Fig14(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	for i, level := range r.Levels {
		for j := 1; j < len(r.Ls); j++ {
			a, b := r.Eps[i][j-1], r.Eps[i][j]
			if math.IsNaN(a) || math.IsNaN(b) {
				continue
			}
			if b < a {
				t.Errorf("level %g: contour eps decreasing at L=%g (%g -> %g)", level, r.Ls[j], a, b)
			}
		}
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig15CostMonotone(t *testing.T) {
	r, err := Fig15(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Ls {
		for j := 1; j < len(r.Epses); j++ {
			if r.Cost[i][j] > r.Cost[i][j-1]+1e-12 {
				t.Errorf("L=%g: cost rising with eps at %g", r.Ls[i], r.Epses[j])
			}
		}
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig16Fig17BiasedBSSImproves(t *testing.T) {
	for name, fn := range map[string]func(Scale) (*Fig16Result, error){"fig16": Fig16, "fig17": Fig17} {
		r, err := fn(ScaleSmall)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.RowsModeA) == 0 || len(r.RowsModeB) == 0 {
			t.Fatalf("%s: missing rows", name)
		}
		// At the lowest rate (largest bias), designed BSS should land at
		// least as close to the real mean as plain systematic (mode B),
		// comparing typical (median) instances.
		low := r.RowsModeB[0]
		sysErr := math.Abs(low.SystematicMed - r.Mean)
		bssErr := math.Abs(low.BSSMed - r.Mean)
		if bssErr > sysErr*1.1 {
			t.Errorf("%s: lowest-rate BSS median error %g vs systematic %g", name, bssErr, sysErr)
		}
		if r.Render() == "" {
			t.Error("empty render")
		}
	}
}

func TestFig18Fig19OnlineBSS(t *testing.T) {
	for name, fn := range map[string]func(Scale) (*Fig18Result, error){"fig18": Fig18, "fig19": Fig19} {
		r, err := fn(ScaleSmall)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Rows) == 0 {
			t.Fatalf("%s: no rows", name)
		}
		low := r.Rows[0]
		sysErr := math.Abs(low.SystematicMed - r.Mean)
		bssErr := math.Abs(low.BSSMed - r.Mean)
		if bssErr > sysErr*1.15 {
			t.Errorf("%s: lowest-rate online BSS median error %g vs systematic %g", name, bssErr, sysErr)
		}
		for _, row := range r.Rows {
			if !math.IsNaN(row.Overhead) && row.Overhead > 1.5 {
				t.Errorf("%s rate %g: overhead %g implausibly high", name, row.Rate, row.Overhead)
			}
		}
		if r.Render() == "" {
			t.Error("empty render")
		}
	}
}

func TestFig20EfficiencyGain(t *testing.T) {
	r, err := Fig20(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	// The gain concentrates at low rates where the bias is large; at high
	// rates both techniques are near-unbiased and efficiency ties. Demand
	// a clear win at the lowest rate and no meaningful overall loss.
	low := r.Rows[0]
	if low.BSS <= low.Systematic {
		t.Errorf("lowest-rate efficiency: BSS %g <= systematic %g", low.BSS, low.Systematic)
	}
	if r.AvgBSS < r.AvgSystematic*0.95 {
		t.Errorf("BSS average efficiency %g well below systematic %g", r.AvgBSS, r.AvgSystematic)
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig21HurstPreserved(t *testing.T) {
	r, err := Fig21(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Betas) == 0 {
		t.Fatal("no rows")
	}
	for i := range r.Betas {
		if d := math.Abs(r.OriginalHats[i] - r.SampledHats[i]); d > 0.3 {
			t.Errorf("beta=%g: original %g vs sampled %g (diff %g)", r.Betas[i], r.OriginalHats[i], r.SampledHats[i], d)
		}
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig22BSSVarianceClose(t *testing.T) {
	r, err := Fig22(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range [][]VarianceRow{r.Synthetic, r.Real} {
		for _, row := range rows {
			if row.BSS > row.Systematic*5+1e-12 {
				t.Errorf("rate %g: BSS variance %g far above systematic %g", row.Rate, row.BSS, row.Systematic)
			}
		}
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}
