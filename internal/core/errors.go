package core

import (
	"errors"
	"fmt"
	"strings"
)

// ErrUnknownTechnique reports a spec that names no technique in the
// technique table. Errors returned by Lookup and Build wrap it, so callers
// can branch with errors.Is.
var ErrUnknownTechnique = errors.New("unknown sampling technique")

// ErrBadSpec reports a spec string that does not follow the
// "name:key=val,key=val" syntax (empty name, missing '=', duplicate
// keys). Errors returned by ParseSpec wrap it.
var ErrBadSpec = errors.New("malformed sampler spec")

// ParamError describes a spec parameter a factory rejected: a value
// that does not parse, a missing required parameter, or a key the
// technique's factory did not consume. Lookup fills in Technique before
// returning; extract with errors.As.
type ParamError struct {
	Technique string // technique name; "" while the spec is still being parsed
	Param     string // offending key, or a comma-joined list of keys
	Value     string // raw value; "" when the key itself is the problem
	Reason    string // human-readable cause
}

// Error implements error.
func (e *ParamError) Error() string {
	var b strings.Builder
	b.WriteString("core: ")
	if e.Technique != "" {
		fmt.Fprintf(&b, "sampler %q: ", e.Technique)
	}
	fmt.Fprintf(&b, "parameter %s", e.Param)
	if e.Value != "" {
		fmt.Fprintf(&b, "=%q", e.Value)
	}
	b.WriteString(": ")
	b.WriteString(e.Reason)
	return b.String()
}
