package sampling

import (
	"errors"

	"repro/internal/core"
	"repro/sampling/estimate"
)

// The typed failure modes of Parse, New and ingest. The spec errors
// alias the internal technique table's so a *ParamError produced deep
// inside a factory satisfies errors.As against the public type.
var (
	// ErrUnknownTechnique is wrapped by errors from New when the spec
	// names no known technique.
	ErrUnknownTechnique = core.ErrUnknownTechnique
	// ErrBadSpec is wrapped by errors from Parse when the spec string
	// does not follow the "name:key=val,key=val" syntax.
	ErrBadSpec = core.ErrBadSpec
	// ErrUnknownEstimator is wrapped by errors from New when
	// WithEstimator names no registered estimation method.
	ErrUnknownEstimator = estimate.ErrUnknownMethod
	// ErrFinished is returned (or wrapped) by OfferBatch and Sample on
	// an engine or group that Finish or Sample has already finalized.
	ErrFinished = errors.New("sampling: stream already finished")
)

// ParamError reports a spec parameter the technique rejected: a value
// that does not parse, a missing required parameter, or a key the
// technique does not accept. Extract it from New's error with errors.As.
type ParamError = core.ParamError
