package estimate

// Stateful is an Estimator whose exact internal state can be captured
// and restored: AppendState on a live estimator followed by
// RestoreState on a fresh estimator of the same method yields an
// estimator that reports the identical estimates — and continues the
// identical ladder recursion — the original would have. Every estimator
// built by New implements it; the sampling engine codec relies on that
// to carry Hurst ladders through checkpoints.
type Stateful interface {
	Estimator
	// AppendState appends the estimator's state to dst and returns the
	// extended slice.
	AppendState(dst []byte) []byte
	// RestoreState overwrites the estimator's state from a blob
	// produced by AppendState on an estimator of the same method.
	RestoreState(data []byte) error
}

// AppendState implements Stateful.
func (a *aggVar) AppendState(dst []byte) []byte { return a.core.AppendState(dst) }

// RestoreState implements Stateful.
func (a *aggVar) RestoreState(data []byte) error { return a.core.RestoreState(data) }

// AppendState implements Stateful.
func (r *rs) AppendState(dst []byte) []byte { return r.core.AppendState(dst) }

// RestoreState implements Stateful.
func (r *rs) RestoreState(data []byte) error { return r.core.RestoreState(data) }

// Interface compliance checks: every built-in estimator exposes state.
var (
	_ Stateful = (*aggVar)(nil)
	_ Stateful = (*wavelet)(nil)
	_ Stateful = (*rs)(nil)
)
