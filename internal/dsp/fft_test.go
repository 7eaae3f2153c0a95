package dsp

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxAbsDiff(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestNextPow2(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {17, 32}, {1024, 1024}, {1025, 2048},
	}
	for _, c := range cases {
		if got := NextPow2(c.in); got != c.want {
			t.Errorf("NextPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 1 << 20} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false, want true", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 12, 1<<20 + 1} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true, want false", n)
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := newRand(1)
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 33, 60, 64, 100, 128} {
		x := randComplex(rng, n)
		fast := FFT(x)
		slow := DFTNaive(x)
		if d := maxAbsDiff(fast, slow); d > 1e-8*float64(n) {
			t.Errorf("n=%d: FFT deviates from naive DFT by %g", n, d)
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := newRand(2)
	for _, n := range []int{1, 2, 3, 8, 15, 16, 33, 64, 129, 256, 1000} {
		x := randComplex(rng, n)
		y := IFFT(FFT(x))
		if d := maxAbsDiff(x, y); d > 1e-9*float64(n) {
			t.Errorf("n=%d: IFFT(FFT(x)) deviates by %g", n, d)
		}
	}
}

func TestFFTKnownValues(t *testing.T) {
	// FFT of a constant is an impulse at frequency zero.
	x := []complex128{1, 1, 1, 1}
	got := FFT(x)
	want := []complex128{4, 0, 0, 0}
	if d := maxAbsDiff(got, want); d > 1e-12 {
		t.Errorf("FFT(const) = %v, want %v", got, want)
	}
	// FFT of an impulse is flat.
	x = []complex128{1, 0, 0, 0}
	got = FFT(x)
	want = []complex128{1, 1, 1, 1}
	if d := maxAbsDiff(got, want); d > 1e-12 {
		t.Errorf("FFT(delta) = %v, want %v", got, want)
	}
}

func TestFFTParseval(t *testing.T) {
	// Parseval: sum |x|^2 == (1/n) sum |X|^2.
	prop := func(seed uint64, sz uint8) bool {
		n := int(sz%200) + 1
		rng := newRand(seed)
		x := randComplex(rng, n)
		X := FFT(x)
		var ex, eX float64
		for i := range x {
			ex += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			eX += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
		}
		return math.Abs(ex-eX/float64(n)) <= 1e-7*(1+ex)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFFTLinearity(t *testing.T) {
	prop := func(seed uint64, sz uint8) bool {
		n := int(sz%128) + 2
		rng := newRand(seed)
		x := randComplex(rng, n)
		y := randComplex(rng, n)
		alpha := complex(rng.NormFloat64(), rng.NormFloat64())
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = x[i] + alpha*y[i]
		}
		lhs := FFT(sum)
		fx, fy := FFT(x), FFT(y)
		for i := range lhs {
			if cmplx.Abs(lhs[i]-(fx[i]+alpha*fy[i])) > 1e-7*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFFTDoesNotMutateInput(t *testing.T) {
	rng := newRand(3)
	x := randComplex(rng, 37)
	orig := make([]complex128, len(x))
	copy(orig, x)
	FFT(x)
	IFFT(x)
	if d := maxAbsDiff(x, orig); d != 0 {
		t.Errorf("FFT/IFFT mutated their input (max diff %g)", d)
	}
}
