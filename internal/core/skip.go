package core

import (
	"math"
)

// BatchStreamer is the batch-ingest fast path of a StreamSampler: a
// technique that can consume a whole contiguous batch of ticks in one
// call, jumping skip-wise to the ticks it keeps instead of visiting
// every element. The kernels below implement it with one RNG draw per
// kept sample (or per stratum) where the per-tick form would branch —
// and the randomized ones would draw — once per tick.
//
// The contract mirrors Offer exactly: values[i] is the tick at index
// startIndex+i, batches must arrive in stream order with contiguous
// indices, and every sample the batch finalizes is appended to dst in
// the order the per-tick form would have emitted it. Interleaving
// Offer and OfferBatch on the same instance is legal and equivalent to
// the pure per-tick run: both forms advance the same state machine and
// consume the random source in the same sequence, which is what the
// engine-level batch-vs-tick equality tests pin.
//
// dst follows the append convention so callers can reuse one buffer
// across batches (the sampling.Engine passes a pooled scratch slice as
// dst[:0]); implementations never retain it.
type BatchStreamer interface {
	StreamSampler
	OfferBatch(startIndex int, values []float64, dst []Sample) []Sample
}

// BatchOf returns s's batch kernel: s itself, since every built-in
// technique has one, or for a sampler registered without OfferBatch a
// per-tick adapter that offers the batch one tick at a time.
func BatchOf(s StreamSampler) BatchStreamer {
	if b, ok := s.(BatchStreamer); ok {
		return b
	}
	return perTick{s}
}

// perTick is the BatchStreamer form of a kernel that has only Offer.
type perTick struct{ StreamSampler }

// OfferBatch implements BatchStreamer.
func (p perTick) OfferBatch(startIndex int, values []float64, dst []Sample) []Sample {
	for i, v := range values {
		if s, ok := p.Offer(startIndex+i, v); ok {
			dst = append(dst, s)
		}
	}
	return dst
}

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
