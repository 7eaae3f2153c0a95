package core

import (
	"math"
	"testing"

	"repro/internal/dist"
)

func TestPlacementString(t *testing.T) {
	if PlacementSpread.String() != "spread" || PlacementChase.String() != "chase" {
		t.Error("Placement.String broken")
	}
}

func TestPlacementValidation(t *testing.T) {
	b := BSS{Interval: 10, L: 2, Epsilon: 1, Placement: Placement(9)}
	if _, err := collect(b, seq(100)); err == nil {
		t.Error("expected error for unknown placement")
	}
}

func TestProbeOffsetsSpread(t *testing.T) {
	b := BSS{Interval: 10, L: 4, Epsilon: 1}
	got := b.probeOffsets(100, nil)
	want := []int{102, 104, 106, 108}
	if len(got) != len(want) {
		t.Fatalf("offsets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("offset %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestProbesTruncatedAtSeriesEnd checks that probes scheduled past the
// end of the series simply never happen: the stream ends first.
func TestProbesTruncatedAtSeriesEnd(t *testing.T) {
	f := make([]float64, 105)
	for i := range f {
		f[i] = 1
	}
	for i := 100; i < 105; i++ {
		f[i] = 100 // trigger at base sample 100; burst through the tail
	}
	b := BSS{Interval: 10, L: 4, Threshold: 50}
	got, err := collect(b, f)
	if err != nil {
		t.Fatal(err)
	}
	// Spread probes for the trigger at 100 fall at 102, 104, 106, 108;
	// only the first two exist.
	if _, qualified := CountKinds(got); qualified != 2 {
		t.Errorf("qualified = %d, want 2 (probes beyond the series end must be dropped)", qualified)
	}
	for _, s := range got {
		if s.Index >= len(f) {
			t.Errorf("sample index %d beyond series end", s.Index)
		}
	}
}

func TestProbeOffsetsChase(t *testing.T) {
	b := BSS{Interval: 10, L: 4, Epsilon: 1, Placement: PlacementChase}
	got := b.probeOffsets(100, nil)
	want := []int{101, 102, 103, 104}
	if len(got) != len(want) {
		t.Fatalf("offsets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("offset %d = %d, want %d", i, got[i], want[i])
		}
	}
	// Chase never crosses into the next interval.
	b.L = 20
	got = b.probeOffsets(100, nil)
	if len(got) != 9 { // 101..109
		t.Errorf("chase with L > C kept %d probes, want 9", len(got))
	}
}

func TestPlacementAblationChaseQualifiesMore(t *testing.T) {
	// On bursty data, chasing qualifies more probes per trigger (burst
	// persistence) but biases the estimate upward relative to spreading.
	rng := dist.NewRand(606)
	// Construct on/off bursts directly: heavy-tailed burst lengths.
	p := dist.Pareto{Alpha: 1.3, Xm: 3}
	f := make([]float64, 1<<17)
	i := 0
	for i < len(f) {
		burst := int(p.Sample(rng))
		level := p.Sample(rng)
		for j := 0; j < burst && i < len(f); j++ {
			f[i] = level
			i++
		}
		gap := int(p.Sample(rng) * 10)
		for j := 0; j < gap && i < len(f); j++ {
			f[i] = 0.5
			i++
		}
	}
	spread := BSS{Interval: 200, L: 8, Epsilon: 1.0}
	chase := spread
	chase.Placement = PlacementChase
	sSamples, err := collect(spread, f)
	if err != nil {
		t.Fatal(err)
	}
	cSamples, err := collect(chase, f)
	if err != nil {
		t.Fatal(err)
	}
	_, sq := CountKinds(sSamples)
	_, cq := CountKinds(cSamples)
	if cq <= sq {
		t.Errorf("chase qualified %d probes, spread %d; chasing should qualify more", cq, sq)
	}
	// Both estimates sit above the plain systematic one (qualified samples
	// only add mass above the threshold).
	sys, err := collect(Systematic{Interval: 200}, f)
	if err != nil {
		t.Fatal(err)
	}
	if MeanOf(cSamples) <= MeanOf(sys) || MeanOf(sSamples) <= MeanOf(sys) {
		t.Errorf("BSS means (%g chase, %g spread) should exceed systematic %g",
			MeanOf(cSamples), MeanOf(sSamples), MeanOf(sys))
	}
}

func TestOptimalDesign(t *testing.T) {
	d := BSSDesign{Alpha: 1.5}
	l, eps, overhead, err := d.OptimalDesign(0.2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if l != 10 {
		t.Errorf("L = %d, want the full budget 10", l)
	}
	// The pair must sit on the xi = 1 contour.
	if xi := d.BiasRatio(float64(l), eps, 0.2); math.Abs(xi-1) > 1e-6 {
		t.Errorf("optimal pair off the unbiased contour: xi = %g", xi)
	}
	// Overhead formula: eta/(c-1).
	c := d.ThresholdRatio(eps)
	if math.Abs(overhead-0.2/(c-1)) > 1e-9 {
		t.Errorf("overhead = %g, want %g", overhead, 0.2/(c-1))
	}
	// A bigger budget buys a higher threshold and less overhead.
	_, eps50, overhead50, err := d.OptimalDesign(0.2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !(eps50 > eps) || !(overhead50 < overhead) {
		t.Errorf("budget 50: eps %g (want > %g), overhead %g (want < %g)", eps50, eps, overhead50, overhead)
	}
	// Errors.
	if _, _, _, err := d.OptimalDesign(0, 10); err == nil {
		t.Error("expected error for eta = 0")
	}
	if _, _, _, err := d.OptimalDesign(0.2, 0); err == nil {
		t.Error("expected error for maxL = 0")
	}
	// A tiny budget at a large bias is infeasible.
	if _, _, _, err := d.OptimalDesign(0.9, 1); err == nil {
		t.Error("expected infeasibility error")
	}
}

func TestOptimalDesignBeatsNaive(t *testing.T) {
	// The optimal pair's overhead never exceeds the eps=1 design's for the
	// same eta when both are feasible.
	d := BSSDesign{Alpha: 1.3}
	const eta = 0.25
	lNaive, err := d.LUnbiased(1.0, eta)
	if err != nil {
		t.Fatal(err)
	}
	naiveOverhead := d.QualifiedFraction(lNaive, 1.0)
	_, _, optOverhead, err := d.OptimalDesign(eta, int(math.Ceil(lNaive)))
	if err != nil {
		t.Fatal(err)
	}
	if optOverhead > naiveOverhead*1.001 {
		t.Errorf("optimal overhead %g exceeds naive %g", optOverhead, naiveOverhead)
	}
}
