package dsp

import "fmt"

// convolveDirect returns the full linear convolution of a and b by the
// direct O(n*m) sum, the reference SelfConvolvePowerDirect builds on.
func convolveDirect(a, b []float64) []float64 {
	out := make([]float64, len(a)+len(b)-1)
	for i, av := range a {
		if av == 0 {
			continue
		}
		for j, bv := range b {
			out[i+j] += av * bv
		}
	}
	return out
}

// SelfConvolvePower returns the k-fold linear self-convolution of p (that
// is, p * p * ... * p, k times). For a probability mass function p this is
// the distribution of the sum of k i.i.d. variables. The result has length
// k*(len(p)-1)+1. It is computed with a single FFT as IFFT(FFT(p)^k),
// zero-padded so no circular aliasing occurs.
//
// An error is returned for k < 1 or empty p.
func SelfConvolvePower(p []float64, k int) ([]float64, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("dsp: SelfConvolvePower on empty sequence")
	}
	if k < 1 {
		return nil, fmt.Errorf("dsp: SelfConvolvePower power k=%d < 1", k)
	}
	outLen := k*(len(p)-1) + 1
	if k == 1 {
		out := make([]float64, len(p))
		copy(out, p)
		return out, nil
	}
	n := NextPow2(outLen)
	f := make([]complex128, n)
	for i, v := range p {
		f[i] = complex(v, 0)
	}
	fftPow2(f, false)
	for i := range f {
		f[i] = cpow(f[i], k)
	}
	fftPow2(f, true)
	out := make([]float64, outLen)
	inv := 1 / float64(n)
	for i := range out {
		v := real(f[i]) * inv
		// Numerical noise can push tiny probabilities slightly negative.
		if v < 0 && v > -1e-12 {
			v = 0
		}
		out[i] = v
	}
	return out, nil
}

// SelfConvolvePowerDirect is the reference O(k * n^2) implementation of
// SelfConvolvePower, used by tests and by the SNC ablation benchmark.
func SelfConvolvePowerDirect(p []float64, k int) ([]float64, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("dsp: SelfConvolvePowerDirect on empty sequence")
	}
	if k < 1 {
		return nil, fmt.Errorf("dsp: SelfConvolvePowerDirect power k=%d < 1", k)
	}
	out := make([]float64, len(p))
	copy(out, p)
	for i := 1; i < k; i++ {
		out = convolveDirect(out, p)
	}
	return out, nil
}

// cpow raises a complex number to a nonnegative integer power by repeated
// squaring; it avoids cmplx.Pow's branch-cut issues at the origin.
func cpow(z complex128, k int) complex128 {
	result := complex(1, 0)
	for k > 0 {
		if k&1 == 1 {
			result *= z
		}
		z *= z
		k >>= 1
	}
	return result
}
