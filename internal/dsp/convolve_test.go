package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

func maxAbsDiffF(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestConvolveKnown pins the direct convolution behind the
// SelfConvolvePowerDirect oracle on a hand-computed case.
func TestConvolveKnown(t *testing.T) {
	got := convolveDirect([]float64{1, 2, 3}, []float64{0, 1, 0.5})
	want := []float64{0, 1, 2.5, 4, 1.5}
	if len(got) != len(want) || maxAbsDiffF(got, want) > 1e-12 {
		t.Errorf("convolveDirect = %v, want %v", got, want)
	}
}

// TestConvolveFFTMatchesDirect: the FFT self-convolution agrees with
// the direct sum at lengths on both sides of a power of two, so the
// zero padding never aliases.
func TestConvolveFFTMatchesDirect(t *testing.T) {
	rng := newRand(10)
	for _, n := range []int{3, 64, 100, 333} {
		p := make([]float64, n)
		for i := range p {
			p[i] = rng.NormFloat64()
		}
		fast, err := SelfConvolvePower(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiffF(fast, convolveDirect(p, p)); d > 1e-8 {
			t.Errorf("n=%d: FFT convolution deviates from direct by %g", n, d)
		}
	}
}

func TestConvolveCommutative(t *testing.T) {
	prop := func(seed uint64, la, lb uint8) bool {
		na, nb := int(la%60)+1, int(lb%60)+1
		rng := newRand(seed)
		a := make([]float64, na)
		b := make([]float64, nb)
		for i := range a {
			a[i] = rng.Float64()
		}
		for i := range b {
			b[i] = rng.Float64()
		}
		return maxAbsDiffF(convolveDirect(a, b), convolveDirect(b, a)) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSelfConvolvePowerErrors(t *testing.T) {
	if _, err := SelfConvolvePower(nil, 2); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := SelfConvolvePower([]float64{1}, 0); err == nil {
		t.Error("expected error for k < 1")
	}
	if _, err := SelfConvolvePowerDirect(nil, 2); err == nil {
		t.Error("expected error for empty input (direct)")
	}
	if _, err := SelfConvolvePowerDirect([]float64{1}, 0); err == nil {
		t.Error("expected error for k < 1 (direct)")
	}
}

func TestSelfConvolvePowerIdentity(t *testing.T) {
	p := []float64{0.25, 0.5, 0.25}
	got, err := SelfConvolvePower(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiffF(got, p) > 1e-14 {
		t.Errorf("k=1 power = %v, want %v", got, p)
	}
}

func TestSelfConvolvePowerMatchesDirect(t *testing.T) {
	p := []float64{0.1, 0.3, 0.4, 0.2}
	for _, k := range []int{1, 2, 3, 5, 8} {
		fast, err := SelfConvolvePower(p, k)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := SelfConvolvePowerDirect(p, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(fast) != len(slow) {
			t.Fatalf("k=%d: length %d vs %d", k, len(fast), len(slow))
		}
		if d := maxAbsDiffF(fast, slow); d > 1e-9 {
			t.Errorf("k=%d: FFT power deviates from direct by %g", k, d)
		}
	}
}

func TestSelfConvolvePowerIsPMF(t *testing.T) {
	// Convolving a pmf with itself must stay a pmf: nonnegative, sums to 1,
	// and the mean scales linearly with k.
	prop := func(seed uint64, kk uint8) bool {
		k := int(kk%12) + 1
		rng := newRand(seed)
		p := make([]float64, 8)
		var s float64
		for i := range p {
			p[i] = rng.Float64()
			s += p[i]
		}
		for i := range p {
			p[i] /= s
		}
		q, err := SelfConvolvePower(p, k)
		if err != nil {
			return false
		}
		var qs, meanP, meanQ float64
		for i, v := range q {
			if v < -1e-9 {
				return false
			}
			qs += v
			meanQ += float64(i) * v
		}
		for i, v := range p {
			meanP += float64(i) * v
		}
		return math.Abs(qs-1) < 1e-8 && math.Abs(meanQ-float64(k)*meanP) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPeriodogramSinusoid(t *testing.T) {
	// A pure sinusoid at Fourier frequency k0 concentrates its energy there.
	n := 1024
	k0 := 37
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(k0) * float64(i) / float64(n))
	}
	freqs, power, err := Periodogram(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(freqs) != n/2 || len(power) != n/2 {
		t.Fatalf("periodogram length = %d, want %d", len(power), n/2)
	}
	best := 0
	for i := range power {
		if power[i] > power[best] {
			best = i
		}
	}
	if best != k0-1 {
		t.Errorf("peak at index %d (freq %g), want index %d", best, freqs[best], k0-1)
	}
	var rest float64
	for i, v := range power {
		if i != best {
			rest += v
		}
	}
	if rest > power[best]*1e-6 {
		t.Errorf("energy leakage: off-peak mass %g vs peak %g", rest, power[best])
	}
}

func TestPeriodogramTooShort(t *testing.T) {
	if _, _, err := Periodogram([]float64{1, 2}); err == nil {
		t.Error("expected error for short series")
	}
}

func BenchmarkFFTPow2_4096(b *testing.B) {
	rng := newRand(42)
	x := randComplex(rng, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFTBluestein_4095(b *testing.B) {
	rng := newRand(42)
	x := randComplex(rng, 4095)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkSelfConvolvePowerFFT(b *testing.B) {
	p := make([]float64, 256)
	for i := range p {
		p[i] = 1.0 / 256
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SelfConvolvePower(p, 64); err != nil {
			b.Fatal(err)
		}
	}
}
