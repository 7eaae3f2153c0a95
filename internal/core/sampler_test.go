package core

import (
	"math"
	"testing"
	"testing/quick"
)

// collect builds cfg's kernel and runs it over f.
func collect(cfg interface{ Kernel() (Kernel, error) }, f []float64) ([]Sample, error) {
	k, err := cfg.Kernel()
	if err != nil {
		return nil, err
	}
	return Collect(k, f)
}

// mustKernel builds cfg's kernel, failing the test on an invalid cfg.
func mustKernel(t *testing.T, cfg interface{ Kernel() (Kernel, error) }) Kernel {
	t.Helper()
	k, err := cfg.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func seq(n int) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = float64(i)
	}
	return f
}

func TestSystematicValidation(t *testing.T) {
	if _, err := (Systematic{Interval: 0}).Kernel(); err == nil {
		t.Error("expected error for interval 0")
	}
	if _, err := (Systematic{Interval: 4, Offset: 4}).Kernel(); err == nil {
		t.Error("expected error for offset == interval")
	}
	if _, err := (Systematic{Interval: 4, Offset: -1}).Kernel(); err == nil {
		t.Error("expected error for negative offset")
	}
	s := Systematic{Interval: 4, Offset: 2}
	if name := mustKernel(t, s).Name(); name != "systematic" {
		t.Errorf("name = %q", name)
	}
	if _, err := collect(s, nil); err == nil {
		t.Error("expected error for empty series")
	}
}

func TestSystematicIndices(t *testing.T) {
	s := Systematic{Interval: 3, Offset: 1}
	got, err := collect(s, seq(10))
	if err != nil {
		t.Fatal(err)
	}
	wantIdx := []int{1, 4, 7}
	if len(got) != len(wantIdx) {
		t.Fatalf("got %d samples, want %d", len(got), len(wantIdx))
	}
	for i, w := range wantIdx {
		if got[i].Index != w || got[i].Value != float64(w) || got[i].Qualified {
			t.Errorf("sample %d = %+v, want index %d", i, got[i], w)
		}
	}
}

func TestSystematicDeterministic(t *testing.T) {
	f := seq(100)
	s := Systematic{Interval: 7}
	a, _ := collect(s, f)
	b, _ := collect(s, f)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("systematic sampling must be deterministic")
		}
	}
}

func TestStratifiedOnePerStratum(t *testing.T) {
	prop := func(seed uint64, cRaw uint8) bool {
		c := int(cRaw%16) + 1
		s := Stratified{Interval: c, Rng: newRand(seed)}
		f := seq(16 * c)
		got, err := collect(s, f)
		if err != nil {
			return false
		}
		if len(got) != 16 {
			return false
		}
		for i, smp := range got {
			if smp.Index < i*c || smp.Index >= (i+1)*c {
				return false
			}
			if smp.Value != f[smp.Index] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStratifiedValidation(t *testing.T) {
	if _, err := (Stratified{Interval: 0, Rng: newRand(1)}).Kernel(); err == nil {
		t.Error("expected error for interval 0")
	}
	if _, err := (Stratified{Interval: 4}).Kernel(); err == nil {
		t.Error("expected error for nil rng")
	}
	s := Stratified{Interval: 4, Rng: newRand(1)}
	if name := mustKernel(t, s).Name(); name != "stratified" {
		t.Errorf("name = %q", name)
	}
	if _, err := collect(s, nil); err == nil {
		t.Error("expected error for empty series")
	}
}

func TestSimpleRandomWithoutReplacement(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		s := SimpleRandom{N: n, Rng: newRand(seed)}
		f := seq(200)
		got, err := collect(s, f)
		if err != nil || len(got) != n {
			return false
		}
		seen := make(map[int]bool, n)
		last := -1
		for _, smp := range got {
			if seen[smp.Index] || smp.Index <= last || smp.Index >= len(f) {
				return false
			}
			seen[smp.Index] = true
			last = smp.Index
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSimpleRandomValidation(t *testing.T) {
	if _, err := (SimpleRandom{N: 0, Rng: newRand(1)}).Kernel(); err == nil {
		t.Error("expected error for n = 0")
	}
	if _, err := (SimpleRandom{N: 5}).Kernel(); err == nil {
		t.Error("expected error for nil rng")
	}
	s := SimpleRandom{N: 10, Rng: newRand(1)}
	if name := mustKernel(t, s).Name(); name != "simple-random" {
		t.Errorf("name = %q", name)
	}
	if _, err := collect(s, seq(5)); err == nil {
		t.Error("expected error for n > population")
	}
	if _, err := collect(s, nil); err == nil {
		t.Error("expected error for empty series")
	}
}

func TestSimpleRandomUniformCoverage(t *testing.T) {
	// Every position should be picked roughly equally often.
	const popLen, picks, reps = 50, 10, 4000
	counts := make([]int, popLen)
	f := seq(popLen)
	for r := 0; r < reps; r++ {
		s := SimpleRandom{N: picks, Rng: newRand(uint64(r))}
		got, err := collect(s, f)
		if err != nil {
			t.Fatal(err)
		}
		for _, smp := range got {
			counts[smp.Index]++
		}
	}
	want := float64(picks*reps) / popLen
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.25 {
			t.Errorf("position %d picked %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestBernoulliSampling(t *testing.T) {
	if _, err := (Bernoulli{Rate: 0, Rng: newRand(1)}).Kernel(); err == nil {
		t.Error("expected error for rate 0")
	}
	if _, err := (Bernoulli{Rate: 1.5, Rng: newRand(1)}).Kernel(); err == nil {
		t.Error("expected error for rate > 1")
	}
	if _, err := (Bernoulli{Rate: 0.5}).Kernel(); err == nil {
		t.Error("expected error for nil rng")
	}
	b := Bernoulli{Rate: 0.25, Rng: newRand(3)}
	if name := mustKernel(t, b).Name(); name != "bernoulli" {
		t.Errorf("name = %q", name)
	}
	f := seq(100000)
	got, err := collect(b, f)
	if err != nil {
		t.Fatal(err)
	}
	if n := float64(len(got)); math.Abs(n-25000) > 1000 {
		t.Errorf("kept %g samples, want ~25000", n)
	}
	if _, err := collect(b, nil); err == nil {
		t.Error("expected error for empty series")
	}
}

func TestBernoulliGapsAreGeometric(t *testing.T) {
	// Eq. (13): gap law Pr(T=k) = (1-r)^(k-1) r; the mean gap is 1/r.
	b := Bernoulli{Rate: 0.2, Rng: newRand(9)}
	got, err := collect(b, seq(200000))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 1; i < len(got); i++ {
		sum += float64(got[i].Index - got[i-1].Index)
	}
	meanGap := sum / float64(len(got)-1)
	if math.Abs(meanGap-5) > 0.2 {
		t.Errorf("mean gap %g, want ~5", meanGap)
	}
}

func TestAllSamplersAreUnbiasedOnIID(t *testing.T) {
	// On light-tailed i.i.d. data every technique estimates the mean well —
	// the paper's point is that this breaks for heavy tails, not here.
	rng := newRand(1234)
	f := make([]float64, 100000)
	for i := range f {
		f[i] = rng.Float64() * 10
	}
	trueMean := MeanOf(mustSample(t, Systematic{Interval: 1}, f))
	for _, cfg := range []interface{ Kernel() (Kernel, error) }{
		Systematic{Interval: 100, Offset: 13},
		Stratified{Interval: 100, Rng: newRand(5)},
		SimpleRandom{N: 1000, Rng: newRand(6)},
		Bernoulli{Rate: 0.01, Rng: newRand(7)},
	} {
		m := MeanOf(mustSample(t, cfg, f))
		if math.Abs(m-trueMean) > 0.35 {
			t.Errorf("%s: mean %g vs true %g", mustKernel(t, cfg).Name(), m, trueMean)
		}
	}
}

func mustSample(t *testing.T, cfg interface{ Kernel() (Kernel, error) }, f []float64) []Sample {
	t.Helper()
	got, err := collect(cfg, f)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	return got
}
