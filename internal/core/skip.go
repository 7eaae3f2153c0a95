package core

import (
	"math"
)

// The skip draws behind the batch kernels (Kernel.OfferBatch): each
// turns a run of per-tick keep/reject decisions into one draw of how
// many ticks to pass over.

// maxSkip caps a drawn skip count so degenerate parameters (an
// underflowed acceptance probability, a log ratio rounding to +Inf)
// saturate to "skip effectively forever" instead of overflowing int.
const maxSkip = math.MaxInt64 / 4

// geometricSkip draws the number of ticks passed over before the next
// kept one under independent per-tick keep probability p:
// P(S = s) = (1-p)^s p for s >= 0, the geometric gap law of the
// paper's Eq. (13). logq is log(1-p), precomputed by the caller. A
// single inverse-transform draw replaces the run of per-tick uniform
// draws that would have rejected those s ticks one by one.
func geometricSkip(rng *Rand, logq float64) int {
	// 1-Float64() is uniform on (0,1], so the log is finite and <= 0.
	// For p = 1, logq is -Inf and the quotient is the skip 0 every
	// kept-with-certainty tick wants.
	s := math.Log(1-rng.Float64()) / logq
	if !(s < maxSkip) { // catches NaN (logq == 0 when p underflows to 0)
		return maxSkip
	}
	return int(s)
}

// reservoirSkip draws the Vitter-style skip of Algorithm L: with the
// reservoir's acceptance threshold at w, the number of ticks passed
// over before the next reservoir replacement is geometric with
// parameter w. Guarded like geometricSkip: w == 0 (underflow after
// astronomically many replacements) means "never replace again".
func reservoirSkip(rng *Rand, w float64) int {
	s := math.Log(1-rng.Float64()) / math.Log1p(-w)
	if !(s >= 0 && s < maxSkip) {
		return maxSkip
	}
	return int(s)
}
