package dsp

import (
	"fmt"
	"math"
)

// Wavelet is an orthonormal wavelet defined by its scaling (low-pass)
// filter h; the detail (high-pass) filter g is derived by the quadrature
// mirror relation g[n] = (-1)^n h[L-1-n].
type Wavelet struct {
	name string
	h    []float64 // scaling filter, sum = sqrt(2)
	g    []float64 // wavelet filter
}

// Name returns the conventional name of the wavelet family member.
func (w Wavelet) Name() string { return w.name }

func newWavelet(name string, h []float64) Wavelet {
	l := len(h)
	g := make([]float64, l)
	for n := 0; n < l; n++ {
		g[n] = h[l-1-n]
		if n%2 == 1 {
			g[n] = -g[n]
		}
	}
	return Wavelet{name: name, h: h, g: g}
}

// Haar returns the Haar wavelet (Daubechies-1).
func Haar() Wavelet {
	s := 1 / math.Sqrt2
	return newWavelet("haar", []float64{s, s})
}

// Daubechies4 returns the Daubechies wavelet with 2 vanishing moments
// (4-tap filter, often written db2 or D4).
func Daubechies4() Wavelet {
	return newWavelet("db4", []float64{
		0.48296291314469025,
		0.83651630373746899,
		0.22414386804185735,
		-0.12940952255092145,
	})
}

// Decomposition holds a multiresolution pyramid: Details[j] are the wavelet
// coefficients at octave j+1 (scale 2^(j+1)), and Approx is the remaining
// coarse approximation.
type Decomposition struct {
	Details [][]float64
	Approx  []float64
}

// Decompose runs the pyramid (Mallat) algorithm with periodic boundary
// handling for up to maxLevels octaves, stopping early when the
// approximation becomes shorter than the filter. maxLevels <= 0 means "as
// deep as possible".
func (w Wavelet) Decompose(x []float64, maxLevels int) (Decomposition, error) {
	if len(x) < 2*len(w.h) {
		return Decomposition{}, fmt.Errorf("dsp: series of length %d too short for %s decomposition", len(x), w.name)
	}
	if maxLevels <= 0 {
		maxLevels = 64
	}
	approx := make([]float64, len(x))
	copy(approx, x)
	var dec Decomposition
	for level := 0; level < maxLevels; level++ {
		if len(approx) < 2*len(w.h) || len(approx)%2 != 0 {
			break
		}
		nextA, detail := w.analyzeStep(approx)
		dec.Details = append(dec.Details, detail)
		approx = nextA
	}
	dec.Approx = approx
	if len(dec.Details) == 0 {
		return Decomposition{}, fmt.Errorf("dsp: could not compute any wavelet octave for length %d", len(x))
	}
	return dec, nil
}

// analyzeStep performs one level of periodic filtering + downsampling.
func (w Wavelet) analyzeStep(a []float64) (approx, detail []float64) {
	n := len(a)
	half := n / 2
	approx = make([]float64, half)
	detail = make([]float64, half)
	for k := 0; k < half; k++ {
		var sa, sd float64
		base := 2 * k
		for i, hv := range w.h {
			idx := base + i
			if idx >= n {
				idx -= n
			}
			v := a[idx]
			sa += hv * v
			sd += w.g[i] * v
		}
		approx[k] = sa
		detail[k] = sd
	}
	return approx, detail
}

// OctaveEnergies returns mu_j = mean of squared detail coefficients per
// octave j (1-based scale 2^j), together with the number of coefficients in
// each octave. These are the inputs of the Abry-Veitch logscale diagram.
func (d Decomposition) OctaveEnergies() (mu []float64, counts []int) {
	mu = make([]float64, len(d.Details))
	counts = make([]int, len(d.Details))
	for j, det := range d.Details {
		var s float64
		for _, v := range det {
			s += v * v
		}
		counts[j] = len(det)
		if len(det) > 0 {
			mu[j] = s / float64(len(det))
		}
	}
	return mu, counts
}
