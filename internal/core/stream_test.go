package core

import (
	"testing"

	"repro/internal/dist"
)

// streamTestTrace is a deterministic heavy-tailed trace shared by the
// batch-vs-oracle equality tests.
func streamTestTrace(n int) []float64 {
	rng := dist.NewRand(20050608)
	p := dist.Pareto{Alpha: 1.4, Xm: 1}
	f := make([]float64, n)
	for i := range f {
		f[i] = p.Sample(rng)
	}
	return f
}

// TestStreamStratifiedDropsPartialStratum pins the batch rule in the
// streaming engine: a trailing incomplete stratum contributes no sample.
func TestStreamStratifiedDropsPartialStratum(t *testing.T) {
	s := Stratified{Interval: 10, Rng: newRand(3)}
	got, err := collect(s, seq(25)) // strata [0,10) [10,20); [20,25) incomplete
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("kept %d samples, want 2", len(got))
	}
	for i, smp := range got {
		if smp.Index < i*10 || smp.Index >= (i+1)*10 {
			t.Errorf("sample %d at index %d outside its stratum", i, smp.Index)
		}
	}
}

// TestStreamSimpleRandomErrors exercises the deferred error path: the
// population check can only happen at Finish.
func TestStreamSimpleRandomErrors(t *testing.T) {
	eng, err := SimpleRandom{N: 10, Rng: newRand(1)}.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Finish(); err == nil {
		t.Error("expected empty-stream error")
	}
	eng2, err := SimpleRandom{N: 10, Rng: newRand(1)}.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		eng2.(tickKernel).Offer(i, 1)
	}
	if _, err := eng2.Finish(); err == nil {
		t.Error("expected n > population error")
	}
}

// TestSimpleRandomRate checks the population-relative size rule
// n = max(1, len(f)/round(1/rate)).
func TestSimpleRandomRate(t *testing.T) {
	s := SimpleRandom{Rate: 0.01, Rng: newRand(9)}
	got, err := collect(s, seq(5000))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Errorf("kept %d samples, want 50", len(got))
	}
	if _, err := (SimpleRandom{Rate: 0, Rng: newRand(9)}).Kernel(); err == nil {
		t.Error("expected error for rate 0")
	}
	if _, err := (SimpleRandom{Rate: 1.5, Rng: newRand(9)}).Kernel(); err == nil {
		t.Error("expected error for rate > 1")
	}
}

// TestCollectEmptySeries pins the adapter's empty-series error.
func TestCollectEmptySeries(t *testing.T) {
	eng, err := Systematic{Interval: 3}.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(eng, nil); err == nil {
		t.Error("expected error for empty series")
	}
}
