package sampling

import (
	"sort"
	"strings"

	"repro/internal/core"
)

// Spec is the typed description of a sampler: a technique name
// (systematic, stratified, simple or simple-random, bernoulli, bss)
// plus its key=value parameters. The zero value is invalid; build specs
// with Parse, MustParse, or a literal:
//
//	Spec{Technique: "systematic", Params: map[string]string{"interval": "1000"}}
//
// A Spec is a value: With returns modified copies and String renders the
// canonical spec string, so specs round-trip losslessly between the
// typed and string forms.
type Spec struct {
	Technique string
	Params    map[string]string
}

// Parse parses a spec string like "bss:rate=1e-3,L=10,eps=1.0" into a
// typed Spec. It validates only the syntax, not the technique name or
// parameter values — New performs those checks, so a Spec can be parsed
// and inspected before any engine is built. Syntax errors wrap
// ErrBadSpec.
func Parse(s string) (Spec, error) {
	name, p, err := core.ParseSpec(s)
	if err != nil {
		return Spec{}, err
	}
	return Spec{Technique: name, Params: p.Map()}, nil
}

// MustParse is Parse for statically known specs; it panics on error.
func MustParse(s string) Spec {
	spec, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return spec
}

// String renders the canonical spec string: the technique name, then the
// parameters in sorted key order. Parse(s.String()) yields a Spec equal
// to s whenever the values are free of the separator characters
// ':' ',' '=' — always the case for specs that came from Parse; that is
// the round-trip property the spec tests assert. New never goes through
// the string form (it hands the parameter map to the technique's factory
// directly), so a literal Spec with unusual values still builds and
// fails, if it fails, with a *ParamError naming the right key.
func (s Spec) String() string {
	if len(s.Params) == 0 {
		return s.Technique
	}
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Technique)
	sep := byte(':')
	for _, k := range keys {
		b.WriteByte(sep)
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s.Params[k])
		sep = ','
	}
	return b.String()
}

// With returns a copy of the spec with one parameter set (or replaced).
// The receiver is not modified.
func (s Spec) With(key, value string) Spec {
	out := Spec{Technique: s.Technique, Params: make(map[string]string, len(s.Params)+1)}
	for k, v := range s.Params {
		out.Params[k] = v
	}
	out.Params[key] = value
	return out
}
