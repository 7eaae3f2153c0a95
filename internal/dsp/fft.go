// Package dsp provides the signal-processing substrate used throughout the
// reproduction: fast Fourier transforms (radix-2 and Bluestein for arbitrary
// lengths), FFT self-convolution of a pmf, periodograms, and an orthonormal
// discrete wavelet transform. Everything is implemented from scratch on the standard
// library so the repository has no external numeric dependencies.
package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// FFT returns the discrete Fourier transform of x:
//
//	X[k] = sum_{j=0}^{n-1} x[j] * exp(-2*pi*i*j*k/n)
//
// The input is not modified. Any length is accepted: powers of two use the
// iterative radix-2 algorithm, other lengths fall back to Bluestein's
// chirp-z transform (still O(n log n)).
func FFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	fftInPlace(out, false)
	return out
}

// IFFT returns the inverse discrete Fourier transform of X, normalized by
// 1/n so that IFFT(FFT(x)) == x up to rounding error.
func IFFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	fftInPlace(out, true)
	return out
}

// fftInPlace dispatches between the radix-2 and Bluestein implementations
// and applies 1/n scaling for the inverse transform.
func fftInPlace(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if IsPow2(n) {
		fftPow2(x, inverse)
	} else {
		bluestein(x, inverse)
	}
	if inverse {
		scale := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= scale
		}
	}
}

// fftPow2 is the iterative radix-2 Cooley-Tukey transform (no scaling).
func fftPow2(x []complex128, inverse bool) {
	n := len(x)
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wStep := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

// bluestein computes an arbitrary-length DFT as a convolution (chirp-z).
func bluestein(x []complex128, inverse bool) {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	m := NextPow2(2*n - 1)
	// chirp[k] = exp(sign * i * pi * k^2 / n)
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		// k*k may overflow for huge n; reduce mod 2n first (exp is 2n-periodic
		// in k^2/n terms of half-turns).
		kk := (int64(k) * int64(k)) % int64(2*n)
		angle := sign * math.Pi * float64(kk) / float64(n)
		chirp[k] = cmplx.Exp(complex(0, angle))
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	fftPow2(a, false)
	fftPow2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	fftPow2(a, true)
	invM := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * invM * chirp[k]
	}
}

// DFTNaive is the O(n^2) reference transform, retained for tests and for
// documenting the algebraic definition the fast paths must match.
func DFTNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			sum += x[j] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}
