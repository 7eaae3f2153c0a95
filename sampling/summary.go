package sampling

import (
	"math"
	"time"

	"repro/sampling/estimate"
)

// Summary is a point-in-time view of a live engine, returned by
// Engine.Snapshot. All counters are monotonically non-decreasing across
// successive snapshots of the same engine.
type Summary struct {
	Technique string `json:"technique"` // technique name, e.g. "bss"
	Spec      string `json:"spec"`      // canonical spec string the engine was built from

	Seen      int `json:"seen"`      // ticks offered so far
	Kept      int `json:"kept"`      // samples kept so far (base + qualified)
	Qualified int `json:"qualified"` // BSS qualified samples kept so far
	Budget    int `json:"budget"`    // kept-sample cap from WithBudget; 0 = unlimited

	Mean     float64 `json:"mean"`     // running mean of the kept sample values (NaN before the first)
	Variance float64 `json:"variance"` // running unbiased variance of the kept values (NaN below 2)
	CILow    float64 `json:"ci_low"`   // lower end of the 95% confidence interval for Mean (NaN below 2)
	CIHigh   float64 `json:"ci_high"`  // upper end of the 95% confidence interval for Mean (NaN below 2)

	Finished bool  `json:"finished"`        // Finish has been called
	Err      error `json:"error,omitempty"` // deferred engine error recorded by Finish, if any

	// Hurst carries the live long-range-dependence estimates when the
	// engine was built with WithEstimator; nil otherwise.
	Hurst *HurstSummary `json:"hurst,omitempty"`

	At     time.Time     `json:"at"`        // when the snapshot was taken (per the engine's clock)
	Uptime time.Duration `json:"uptime_ns"` // time since the engine was built
}

// HurstPoint is one side of the preservation comparison: the online H
// estimate of a single stream (the engine's input or its kept samples),
// exactly the estimator's reading. Its method is carried beside it, by
// HurstSummary.Method or Comparison.Method.
type HurstPoint = estimate.Estimate

// HurstSummary is the live form of the paper's central question — does
// the technique preserve self-similarity? — for one engine: the Hurst
// parameter of the stream it observes next to the Hurst parameter of
// the samples it kept, plus the drift between them.
type HurstSummary struct {
	Method estimate.Method `json:"method"` // estimation method, e.g. "aggvar"
	Input  HurstPoint      `json:"input"`  // H of every offered tick (pre-sampling)
	Kept   HurstPoint      `json:"kept"`   // H of the kept sample values (post-sampling)
	Drift  float64         `json:"drift"`  // Kept.H - Input.H; NaN until both sides are OK
}

// newHurstSummary assembles the block from the two readings of one
// estimation method.
func newHurstSummary(method estimate.Method, in, kept HurstPoint) *HurstSummary {
	h := &HurstSummary{Method: method, Input: in, Kept: kept, Drift: math.NaN()}
	if in.OK && kept.OK {
		h.Drift = kept.H - in.H
	}
	return h
}
