// Package estimate is the online long-range-dependence estimation
// subsystem of the sampling service: incremental Hurst-parameter
// estimators that consume a stream tick by tick in O(log n) memory —
// the tick path allocates only when a stream first reaches a new dyadic
// level — and produce an estimate on demand at any moment mid-stream.
//
// Three methods are available, mirroring the batch estimators of the
// reproduction (internal/lrd) and validated against them. Each has one
// fixed configuration, with no settings:
//
//   - AggVar: streaming aggregated variance over a dyadic ladder of
//     block sums, regressed from m = 1 — on a complete series it agrees
//     exactly with the batch estimator, because both share one
//     ladder/regression core.
//   - Wavelet: streaming Abry-Veitch via a pairwise Haar cascade over
//     the same ladder discipline, feeding the debiased logscale-diagram
//     regression from octave 3, the batch default.
//   - RS: rescaled-range analysis over a sliding window of the last
//     4096 ticks — the assumption-light fallback that forgets old
//     history.
//
// Estimators are not safe for concurrent use on their own; the
// sampling.Engine (via sampling.WithEstimator) drives them under its
// stream lock, which is where a service should attach them.
package estimate

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/lrd"
	"repro/internal/nanjson"
	"repro/internal/stats"
)

// Method names an estimation algorithm.
type Method string

// The estimation methods.
const (
	AggVar  Method = "aggvar"
	Wavelet Method = "wavelet"
	RS      Method = "rs"
)

// ErrUnknownMethod is wrapped by New for method names that do not name
// an estimator; branch with errors.Is.
var ErrUnknownMethod = errors.New("unknown estimator method")

// Methods returns the method names in display order.
func Methods() []Method { return []Method{AggVar, Wavelet, RS} }

// Estimate is one point-in-time Hurst estimate of a live stream. It
// does not name its method: the Estimator that produced it does
// (Method), and so does every summary that carries it.
type Estimate struct {
	H      float64 `json:"h"`      // estimated Hurst parameter; NaN until determined
	Beta   float64 `json:"beta"`   // implied ACF decay exponent 2 - 2H; NaN with H
	Levels int     `json:"levels"` // regression points (aggregation levels / octaves / block sizes)
	Ticks  int64   `json:"ticks"`  // ticks consumed when the estimate was taken
	OK     bool    `json:"ok"`     // the stream was long enough to regress
}

// MarshalJSON renders the estimate with an undetermined H and Beta as
// null, never NaN.
func (e Estimate) MarshalJSON() ([]byte, error) { return nanjson.Marshal(&e) }

// UnmarshalJSON is the inverse of MarshalJSON: null comes back as NaN.
func (e *Estimate) UnmarshalJSON(data []byte) error { return nanjson.Unmarshal(data, e, false) }

// Estimator consumes a stream and produces Hurst estimates on demand.
// Tick must be O(log n) worst case and may allocate only when the
// stream first reaches a new ladder level, never between powers of
// two; TickBatch is its batch form. Wavelet and rs leave the estimator
// bit for bit where one Tick per value would. Aggvar merges each
// ladder level's run of a batch in one step: its structure stays exact
// and a one-tick batch is Tick, while the level moments depend on the
// batch partition within stats.FoldTolerance (lrd.CompareFoldedStates);
// the same batches always give the same state. Estimate may allocate
// (it runs a small regression) and belongs on the observation path,
// not the ingest path.
//
// An estimator's exact internal state can be captured and restored:
// AppendState on a live estimator followed by RestoreState on a fresh
// estimator of the same method yields one that reports the identical
// estimates — and, fed the same batches, continues the identical
// ladder recursion — the original would have. RestoreState refuses a
// blob no estimator of the method writes, so whatever restores
// re-marshals to the same bytes. The sampling engine codec relies on
// that to carry Hurst ladders through checkpoints.
type Estimator interface {
	Method() Method
	Tick(v float64)
	TickBatch(values []float64)
	Ticks() int64
	Estimate() Estimate
	// AppendState appends the estimator's state to dst and returns the
	// extended slice.
	AppendState(dst []byte) []byte
	// RestoreState overwrites the estimator's state from a blob
	// produced by AppendState on an estimator of the same method.
	RestoreState(data []byte) error
}

// New builds an estimator for the named method. Each method has one
// fixed configuration: aggvar regresses every dyadic level from m = 1,
// wavelet every octave from 3, and rs the last 4096 ticks. Unknown
// names wrap ErrUnknownMethod.
func New(method Method) (Estimator, error) {
	switch method {
	case AggVar:
		return &aggVar{}, nil
	case Wavelet:
		return &wavelet{}, nil
	case RS:
		return &rs{core: lrd.NewStreamRS()}, nil
	}
	return nil, fmt.Errorf("estimate: %q: %w", string(method), ErrUnknownMethod)
}

// finish maps a batch-core result onto the wire-friendly Estimate: an
// estimator that has not seen enough stream yet reports NaN/false, not
// an error — "no estimate yet" is a normal state of a live stream.
func finish(ticks int64, e lrd.HurstEstimate, err error) Estimate {
	// A fit that degenerates to a non-finite slope (identical or
	// overflowed inputs) is also "no estimate", never an OK NaN.
	if err != nil || math.IsNaN(e.H) || math.IsInf(e.H, 0) {
		return Estimate{H: math.NaN(), Beta: math.NaN(), Ticks: ticks}
	}
	return Estimate{H: e.H, Beta: e.Beta, Levels: e.Fit.N, Ticks: ticks, OK: true}
}

type aggVar struct{ core lrd.StreamAggVar }

func (a *aggVar) Method() Method { return AggVar }

//samplelint:hotpath
func (a *aggVar) Tick(v float64) { a.core.Tick(v) }

//samplelint:hotpath
func (a *aggVar) TickBatch(values []float64) { a.core.TickBatch(values) }
func (a *aggVar) Ticks() int64               { return a.core.N() }

// Moments returns the running moments of every tick consumed — level 0
// of the ladder, so a caller that also needs the raw input's moments
// reads them here instead of running a second accumulator.
func (a *aggVar) Moments() stats.AccumulatorState { return a.core.Moments() }

func (a *aggVar) Estimate() Estimate {
	e, err := a.core.Estimate()
	return finish(a.core.N(), e, err)
}

// wavelet embeds its cascade, so Tick, TickBatch, AppendState and
// RestoreState are the cascade's own, with no forwarding frame.
type wavelet struct{ lrd.StreamWavelet }

func (w *wavelet) Method() Method { return Wavelet }
func (w *wavelet) Ticks() int64   { return w.N() }
func (w *wavelet) Estimate() Estimate {
	e, err := w.StreamWavelet.Estimate()
	return finish(w.N(), e, err)
}

type rs struct{ core *lrd.StreamRS }

func (r *rs) Method() Method { return RS }

//samplelint:hotpath
func (r *rs) Tick(v float64) { r.core.Tick(v) }

//samplelint:hotpath
func (r *rs) TickBatch(values []float64) { r.core.TickBatch(values) }
func (r *rs) Ticks() int64               { return r.core.N() }
func (r *rs) Estimate() Estimate {
	e, err := r.core.Estimate()
	return finish(r.core.N(), e, err)
}
