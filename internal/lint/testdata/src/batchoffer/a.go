package batchoffer

import "repro/sampling"

// queue is the seeded regression for the retired string guard: an
// unrelated type with a method spelled Offer. The old name-match test
// flagged any `.Offer(` call, so this shape was a false positive; the
// type-resolved analyzer must let it pass.
type queue struct{ items []float64 }

func (q *queue) Offer(v float64) { q.items = append(q.items, v) }

func allowedUnrelatedOffer(q *queue) {
	q.Offer(1)
}

func flaggedEngineOffer(e *sampling.Engine, vals []float64) {
	for _, v := range vals {
		e.Offer(v) // want `\(\*sampling\.Engine\)\.Offer`
	}
}

// A method value escapes the per-tick cost through a wrapper; the
// reference itself is flagged, not just direct calls.
func flaggedMethodValue(e *sampling.Engine) func(float64) (sampling.Sample, bool) {
	return e.Offer // want `\(\*sampling\.Engine\)\.Offer`
}

func flaggedMethodExpression() func(*sampling.Engine, float64) (sampling.Sample, bool) {
	return (*sampling.Engine).Offer // want `\(\*sampling\.Engine\)\.Offer`
}

func allowedBatch(e *sampling.Engine, g *sampling.Group, vals []float64) int {
	return e.OfferBatch(vals) + g.OfferBatch(vals)
}
