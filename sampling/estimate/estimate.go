// Package estimate is the online long-range-dependence estimation
// subsystem of the sampling service: incremental Hurst-parameter
// estimators that consume a stream tick by tick in O(log n) memory —
// the tick path allocates only when a stream first reaches a new dyadic
// level — and produce an estimate on demand at any moment mid-stream.
//
// Three methods are available, mirroring the batch estimators of the
// reproduction (internal/lrd) and validated against them:
//
//   - AggVar: streaming aggregated variance over a dyadic ladder of
//     block sums — on a complete series it agrees exactly with the
//     batch estimator, because both share one ladder/regression core.
//   - Wavelet: streaming Abry-Veitch via a pairwise Haar cascade over
//     the same ladder discipline, feeding the debiased logscale-diagram
//     regression.
//   - RS: rescaled-range analysis over a sliding window of recent
//     ticks — the assumption-light fallback that forgets old history.
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
	"repro/internal/stats"
)

// Method names an estimation algorithm.
type Method string

// The registered estimation methods.
const (
	AggVar  Method = "aggvar"
	Wavelet Method = "wavelet"
	RS      Method = "rs"
)

// ErrUnknownMethod is wrapped by New for method names that do not name
// an estimator; branch with errors.Is.
var ErrUnknownMethod = errors.New("unknown estimator method")

// Methods returns the registered method names in display order.
func Methods() []Method { return []Method{AggVar, Wavelet, RS} }

// Estimate is one point-in-time Hurst estimate of a live stream.
type Estimate struct {
	Method Method
	H      float64 // estimated Hurst parameter; NaN until determined
	Beta   float64 // implied ACF decay exponent 2 - 2H; NaN with H
	Levels int     // regression points (aggregation levels / octaves / block sizes)
	Ticks  int64   // ticks consumed when the estimate was taken
	OK     bool    // the stream was long enough to regress
}

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
// ladder recursion — the original would have. The sampling engine codec relies on that to
// carry Hurst ladders through checkpoints.
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

// New builds an estimator for the named method with its defaults:
// aggvar and wavelet are unbounded ladders, rs uses a 4096-tick window.
// Unknown names wrap ErrUnknownMethod.
func New(method Method) (Estimator, error) {
	switch method {
	case AggVar:
		return &aggVar{}, nil
	case Wavelet:
		return &wavelet{}, nil
	case RS:
		return NewRS(0), nil
	}
	return nil, fmt.Errorf("estimate: %q: %w", string(method), ErrUnknownMethod)
}

// NewAggVar builds a streaming aggregated-variance estimator. minM is
// the smallest aggregation level entering the regression; <= 0 means 1.
func NewAggVar(minM int) Estimator {
	return &aggVar{core: lrd.StreamAggVar{MinM: minM}}
}

// NewWavelet builds a streaming Haar/Abry-Veitch estimator. jMin is the
// first octave entering the regression; <= 0 means 3.
func NewWavelet(jMin int) Estimator {
	return &wavelet{lrd.StreamWavelet{JMin: jMin}}
}

// NewRS builds a windowed rescaled-range estimator over the last window
// ticks; <= 0 means 4096.
func NewRS(window int) Estimator {
	return &rs{core: lrd.NewStreamRS(window)}
}

// finish maps a batch-core result onto the wire-friendly Estimate: an
// estimator that has not seen enough stream yet reports NaN/false, not
// an error — "no estimate yet" is a normal state of a live stream.
func finish(method Method, ticks int64, e lrd.HurstEstimate, err error) Estimate {
	// A fit that degenerates to a non-finite slope (identical or
	// overflowed inputs) is also "no estimate", never an OK NaN.
	if err != nil || math.IsNaN(e.H) || math.IsInf(e.H, 0) {
		return Estimate{Method: method, H: math.NaN(), Beta: math.NaN(), Ticks: ticks}
	}
	return Estimate{Method: method, H: e.H, Beta: e.Beta, Levels: e.Fit.N, Ticks: ticks, OK: true}
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
	return finish(AggVar, a.core.N(), e, err)
}

// wavelet embeds its cascade, so Tick, TickBatch, AppendState and
// RestoreState are the cascade's own, with no forwarding frame.
type wavelet struct{ lrd.StreamWavelet }

func (w *wavelet) Method() Method { return Wavelet }
func (w *wavelet) Ticks() int64   { return w.N() }
func (w *wavelet) Estimate() Estimate {
	e, err := w.StreamWavelet.Estimate()
	return finish(Wavelet, w.N(), e, err)
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
	return finish(RS, r.core.N(), e, err)
}
