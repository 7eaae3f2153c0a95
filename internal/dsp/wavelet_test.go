package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWaveletFilterProperties(t *testing.T) {
	// Orthonormal wavelet filters satisfy sum(h) = sqrt(2), sum(g) = 0 and
	// sum(h^2) = 1.
	for _, w := range []Wavelet{Haar(), Daubechies4()} {
		var sumH, sumG, sumH2 float64
		for i := range w.h {
			sumH += w.h[i]
			sumG += w.g[i]
			sumH2 += w.h[i] * w.h[i]
		}
		if math.Abs(sumH-math.Sqrt2) > 1e-10 {
			t.Errorf("%s: sum(h) = %g, want sqrt(2)", w.Name(), sumH)
		}
		if math.Abs(sumG) > 1e-10 {
			t.Errorf("%s: sum(g) = %g, want 0", w.Name(), sumG)
		}
		if math.Abs(sumH2-1) > 1e-10 {
			t.Errorf("%s: sum(h^2) = %g, want 1", w.Name(), sumH2)
		}
	}
}

func TestWaveletEnergyConservation(t *testing.T) {
	// Orthonormality: total energy of coefficients equals energy of input.
	prop := func(seed uint64) bool {
		rng := newRand(seed)
		x := make([]float64, 128)
		var ex float64
		for i := range x {
			x[i] = rng.NormFloat64()
			ex += x[i] * x[i]
		}
		for _, w := range []Wavelet{Haar(), Daubechies4()} {
			dec, err := w.Decompose(x, 0)
			if err != nil {
				return false
			}
			var ec float64
			for _, d := range dec.Details {
				for _, v := range d {
					ec += v * v
				}
			}
			for _, v := range dec.Approx {
				ec += v * v
			}
			if math.Abs(ex-ec) >= 1e-8*(1+ex) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWaveletHaarKnown(t *testing.T) {
	// One Haar level of [1,1,2,2]: approx = [sqrt(2), 2*sqrt(2)], details = 0.
	dec, err := Haar().Decompose([]float64{1, 1, 2, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Details) != 1 {
		t.Fatalf("levels = %d, want 1", len(dec.Details))
	}
	wantA := []float64{math.Sqrt2, 2 * math.Sqrt2}
	if maxAbsDiffF(dec.Approx, wantA) > 1e-12 {
		t.Errorf("approx = %v, want %v", dec.Approx, wantA)
	}
	if maxAbsDiffF(dec.Details[0], []float64{0, 0}) > 1e-12 {
		t.Errorf("details = %v, want zeros", dec.Details[0])
	}
}

func TestWaveletDecomposeDepth(t *testing.T) {
	x := make([]float64, 1024)
	for i := range x {
		x[i] = float64(i % 7)
	}
	dec, err := Haar().Decompose(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 1024 = 2^10; Haar halves until below 2*len(h) = 4.
	if len(dec.Details) < 8 {
		t.Errorf("depth = %d, want >= 8", len(dec.Details))
	}
	for j := 1; j < len(dec.Details); j++ {
		if len(dec.Details[j]) != len(dec.Details[j-1])/2 {
			t.Errorf("octave %d has %d coefficients, want %d", j, len(dec.Details[j]), len(dec.Details[j-1])/2)
		}
	}
}

func TestWaveletDecomposeErrors(t *testing.T) {
	if _, err := Daubechies4().Decompose([]float64{1, 2, 3}, 0); err == nil {
		t.Error("expected error for too-short series")
	}
}

func TestOctaveEnergies(t *testing.T) {
	dec, err := Haar().Decompose([]float64{1, -1, 1, -1, 1, -1, 1, -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mu, counts := dec.OctaveEnergies()
	if len(mu) != len(dec.Details) || len(counts) != len(dec.Details) {
		t.Fatalf("lengths mismatch: %d energies, %d counts, %d octaves", len(mu), len(counts), len(dec.Details))
	}
	// All energy of the alternating signal sits in the first octave.
	if mu[0] < 1.9 {
		t.Errorf("first octave energy = %g, want ~2", mu[0])
	}
	for j := 1; j < len(mu); j++ {
		if mu[j] > 1e-12 {
			t.Errorf("octave %d energy = %g, want 0", j+1, mu[j])
		}
	}
}

func BenchmarkWaveletDecompose64k(b *testing.B) {
	rng := newRand(7)
	x := make([]float64, 1<<16)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	w := Daubechies4()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Decompose(x, 0); err != nil {
			b.Fatal(err)
		}
	}
}
