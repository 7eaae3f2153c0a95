package lint

import (
	"go/types"
	"reflect"
	"strings"

	"repro/internal/lint/analysis"
)

// NanWire enforces the null-for-NaN wire convention: an exported
// struct with a json-tagged plain float64 field must define
// MarshalJSON, because encoding/json fails outright on NaN and the
// engine's moments (mean before the first sample, variance below two)
// are legitimately NaN on a live stream. The sanctioned shape is the
// tags on the public type itself plus a one-line MarshalJSON through
// internal/nanjson, which writes NaN as null — see sampling/json.go
// and estimate.Estimate. Fields whose own type implements
// json.Marshaler, pointer fields (nil already encodes as null) and
// fields tagged json:"-" pass.
var NanWire = &analysis.Analyzer{
	Name: "nanwire",
	Doc:  "exported structs with json-tagged float64 fields must marshal through the null-for-NaN path (define MarshalJSON)",
	Run:  runNanWire,
}

func runNanWire(pass *analysis.Pass) (any, error) {
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		if hasMarshalJSON(named) {
			continue
		}
		var bare []string
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			tag, ok := reflect.StructTag(st.Tag(i)).Lookup("json")
			if !ok {
				continue
			}
			if wireName, _, _ := strings.Cut(tag, ","); wireName == "-" && tag == "-" {
				continue
			}
			if !isBareFloat64(f.Type()) {
				continue
			}
			bare = append(bare, f.Name())
		}
		if len(bare) > 0 {
			pass.Reportf(tn.Pos(),
				"exported struct %s has json-tagged float64 field(s) %s but no MarshalJSON — encoding/json fails on NaN; add a MarshalJSON through internal/nanjson (the null-for-NaN path)",
				tn.Name(), strings.Join(bare, ", "))
		}
	}
	return nil, nil
}

// hasMarshalJSON reports whether *T (and so T's wire behavior under
// encoding/json) provides a MarshalJSON method.
func hasMarshalJSON(named *types.Named) bool {
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == "MarshalJSON" {
			return true
		}
	}
	return false
}

// isBareFloat64 reports whether t encodes as a raw JSON number that
// NaN would break: a plain (possibly named) float64 without its own
// marshaller. Pointer forms pass — nil is the null wire state.
func isBareFloat64(t types.Type) bool {
	if named, ok := t.(*types.Named); ok && hasMarshalJSON(named) {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float64
}
