package core

import (
	"math"
	"testing"
)

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
