package core

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/stats"
)

func TestBSSValidation(t *testing.T) {
	if _, err := (BSS{Interval: 0, L: 5, Epsilon: 1}).Kernel(); err == nil {
		t.Error("expected error for interval 0")
	}
	if _, err := (BSS{Interval: 10, L: -1, Epsilon: 1}).Kernel(); err == nil {
		t.Error("expected error for negative L")
	}
	if _, err := (BSS{Interval: 10, L: 0, Epsilon: 1}).Kernel(); err != nil {
		t.Errorf("L = 0 (degenerate to systematic) should be valid: %v", err)
	}
	if _, err := (BSS{Interval: 10, L: 5, Epsilon: 0}).Kernel(); err == nil {
		t.Error("expected error for adaptive without epsilon")
	}
	if _, err := (BSS{Interval: 10, L: 5, Threshold: -1}).Kernel(); err == nil {
		t.Error("expected error for negative threshold")
	}
	if _, err := collect(BSS{Interval: 10, L: 2, Epsilon: 1, Offset: 11}, seq(100)); err == nil {
		t.Error("expected error for offset >= interval")
	}
	b := BSS{Interval: 10, L: 5, Epsilon: 1.0}
	if name := mustKernel(t, b).Name(); name != "bss" {
		t.Errorf("name = %q", name)
	}
	if _, err := collect(b, nil); err == nil {
		t.Error("expected error for empty series")
	}
}

func TestBSSStaticThresholdBehaviour(t *testing.T) {
	// Construct a series where exactly one base sample exceeds the static
	// threshold, with a burst after it.
	f := make([]float64, 40)
	for i := range f {
		f[i] = 1
	}
	// Base samples at 0, 10, 20, 30 (C=10). Put a burst at 10..15.
	for i := 10; i <= 15; i++ {
		f[i] = 100
	}
	b := BSS{Interval: 10, L: 4, Threshold: 50}
	got, err := collect(b, f)
	if err != nil {
		t.Fatal(err)
	}
	base, qualified := CountKinds(got)
	if base != 4 {
		t.Errorf("base samples = %d, want 4", base)
	}
	// Trigger at index 10; extra probes at 12, 14, 16, 18 (spacing
	// C/(L+1) = 2). Values: f[12]=f[14]=100 qualified, f[16]=f[18]=1 not.
	if qualified != 2 {
		t.Errorf("qualified samples = %d, want 2", qualified)
	}
	for _, s := range got {
		if s.Qualified && s.Value <= 50 {
			t.Errorf("qualified sample %+v below threshold", s)
		}
		if s.Value != f[s.Index] {
			t.Errorf("sample value mismatch at %d", s.Index)
		}
	}
}

func TestBSSIndicesSortedAndUnique(t *testing.T) {
	rng := dist.NewRand(7)
	p := dist.Pareto{Alpha: 1.3, Xm: 1}
	f := make([]float64, 20000)
	for i := range f {
		f[i] = p.Sample(rng)
	}
	b := BSS{Interval: 50, L: 10, Epsilon: 1.0}
	got, err := collect(b, f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Index <= got[i-1].Index {
			t.Fatalf("indices not strictly increasing at %d: %d then %d", i, got[i-1].Index, got[i].Index)
		}
	}
}

func TestBSSImprovesHeavyTailedMeanEstimate(t *testing.T) {
	// The headline claim: on heavy-tailed data at a low sampling rate,
	// BSS with parameters designed per Eq. (23) estimates the real mean
	// more accurately than plain systematic sampling with the same base
	// schedule (total absolute error over instances).
	rng := dist.NewRand(2024)
	p := dist.Pareto{Alpha: 1.3, Xm: 1}
	f := make([]float64, 1<<19)
	for i := range f {
		f[i] = p.Sample(rng)
	}
	real := MeanOf(mustSample(t, Systematic{Interval: 1}, f))
	const c = 1000
	const instances = 25
	// First measure the typical systematic bias, then design L for it
	// (epsilon = 1) the way the paper's online rule does.
	etas := make([]float64, 0, instances)
	var sysErr float64
	for off := 0; off < instances; off++ {
		sys := Systematic{Interval: c, Offset: off * c / instances}
		e := Eta(MeanOf(mustSample(t, sys, f)), real)
		etas = append(etas, e)
		sysErr += math.Abs(e)
	}
	med, err := stats.Median(etas)
	if err != nil {
		t.Fatal(err)
	}
	if med < 0.02 {
		t.Fatalf("median systematic eta = %g; test requires visible under-estimation", med)
	}
	design, err := NewBSSDesign(1.3)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := design.LUnbiased(1.0, med)
	if err != nil {
		t.Fatal(err)
	}
	l := int(lf + 0.5)
	if l < 1 {
		l = 1
	}
	var bssErr float64
	for off := 0; off < instances; off++ {
		b := BSS{Interval: c, Offset: off * c / instances, L: l, Epsilon: 1.0}
		bssErr += math.Abs(Eta(MeanOf(mustSample(t, b, f)), real))
	}
	if bssErr >= sysErr {
		t.Errorf("BSS total |eta| %g not better than systematic %g (L=%d)", bssErr, sysErr, l)
	}
}

func TestBSSQualifiedFractionMatchesTheory(t *testing.T) {
	// Overhead L'/N should track L*c^-2alpha for Pareto data with a static
	// threshold.
	alpha := 1.5
	rng := dist.NewRand(99)
	p := dist.Pareto{Alpha: alpha, Xm: 1}
	f := make([]float64, 1<<20)
	for i := range f {
		f[i] = p.Sample(rng)
	}
	eps := 1.2
	mean := alpha / (alpha - 1) // Pareto mean alpha*xm/(alpha-1), xm = 1
	b := BSS{Interval: 100, L: 10, Threshold: eps * mean}
	got, err := collect(b, f)
	if err != nil {
		t.Fatal(err)
	}
	design, err := NewBSSDesign(alpha)
	if err != nil {
		t.Fatal(err)
	}
	want := design.QualifiedFraction(10, eps)
	if oh := Overhead(got); math.Abs(oh-want)/want > 0.35 {
		t.Errorf("overhead %g, theory %g", oh, want)
	}
}

func TestBSSAdaptiveWarmup(t *testing.T) {
	// Until bssWarmup base samples are in, none may trigger, even a
	// huge one.
	f := make([]float64, 100)
	for i := range f {
		f[i] = 1
	}
	f[0] = 1e9 // base sample 0, during warm-up
	b := BSS{Interval: 10, L: 5, Epsilon: 1}
	got, err := collect(b, f)
	if err != nil {
		t.Fatal(err)
	}
	if _, qualified := CountKinds(got); qualified != 0 {
		t.Errorf("warm-up trigger produced %d qualified samples", qualified)
	}
}

func TestStreamBSSMatchesBatch(t *testing.T) {
	rng := dist.NewRand(404)
	p := dist.Pareto{Alpha: 1.4, Xm: 1}
	f := make([]float64, 50000)
	for i := range f {
		f[i] = p.Sample(rng)
	}
	for _, cfg := range []BSS{
		{Interval: 40, L: 6, Epsilon: 1.0},
		{Interval: 25, L: 4, Threshold: 5},
		{Interval: 100, L: 12, Epsilon: 1.3},
	} {
		stream, err := NewStreamBSS(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := Collect(stream, f)
		if err != nil {
			t.Fatal(err)
		}
		if kept := stream.running.N(); kept != len(batch) {
			t.Errorf("running count = %d, want %d", kept, len(batch))
		}
		if mean := stream.running.Mean(); math.Abs(mean-MeanOf(batch)) > 1e-9 {
			t.Errorf("stream mean %g vs batch %g", mean, MeanOf(batch))
		}
	}
}

func TestStreamBSSValidation(t *testing.T) {
	if _, err := NewStreamBSS(BSS{Interval: 0, L: 1, Epsilon: 1}); err == nil {
		t.Error("expected error for invalid config")
	}
	s, err := NewStreamBSS(BSS{Interval: 10, L: 2, Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.armed {
		t.Error("adaptive threshold armed before warm-up")
	}
}

func BenchmarkBSSSample1M(b *testing.B) {
	rng := dist.NewRand(1)
	p := dist.Pareto{Alpha: 1.3, Xm: 1}
	f := make([]float64, 1<<20)
	for i := range f {
		f[i] = p.Sample(rng)
	}
	cfg := BSS{Interval: 1000, L: 10, Epsilon: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collect(cfg, f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSystematicSample1M(b *testing.B) {
	f := make([]float64, 1<<20)
	s := Systematic{Interval: 1000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collect(s, f); err != nil {
			b.Fatal(err)
		}
	}
}
