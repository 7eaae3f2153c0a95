package estimate

// The state codec of the estimators that wrap their lrd core; wavelet
// embeds its cascade and inherits the cascade's own pair.

func (a *aggVar) AppendState(dst []byte) []byte { return a.core.AppendState(dst) }

func (a *aggVar) RestoreState(data []byte) error { return a.core.RestoreState(data) }

func (r *rs) AppendState(dst []byte) []byte { return r.core.AppendState(dst) }

func (r *rs) RestoreState(data []byte) error { return r.core.RestoreState(data) }
