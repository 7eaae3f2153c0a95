package lint

import (
	"repro/internal/lint/analysis"
)

// samplingPath is the public engine package: deterministic
// (detsource), and the home of the NaN-wire invariant with its
// estimate package.
const samplingPath = "repro/sampling"

// Analyzers returns the full samplelint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{NoReadAll, DetSource, HotAlloc, NanWire}
}

// Scopes maps each analyzer to the package paths it gates when the
// suite runs over the module. A nil entry means every package —
// hotalloc is annotation-driven and applies wherever its directive
// appears. Fixture tests run analyzers unscoped; the meta-test in
// suite_test.go holds these lists against the repo's actual import
// graph so they cannot silently go stale.
var Scopes = map[string][]string{
	"noreadall": {"repro/sampling/wire", "repro/cmd/sampled", "repro/sampling/cluster"},
	"detsource": {samplingPath, "repro/internal/core", "repro/sampling/estimate", obsPath, "repro/sampling/persist", "repro/sampling/cluster"},
	"hotalloc":  nil,
	"nanwire":   {samplingPath, "repro/sampling/estimate"},
}

// obsPath is the observability package: its instruments sit on the
// serving hot path (hotalloc-annotated) and must take clocks by
// injection rather than calling time.Now (detsource), so a test can
// pin every duration it observes.
const obsPath = "repro/internal/obs"

// ReadAllExempt lists packages on the wire that are deliberately
// outside noreadall's scope, each with the reason — the meta-test
// requires every importer of sampling/wire to be scoped or exempted
// here, so an exemption is always an explicit, documented decision.
var ReadAllExempt = map[string]string{
	"repro/cmd/sampleload": "the load generator slurps small JSON control responses off the measurement path; only the serving side is held to incremental decode",
}

// Applies reports whether the analyzer gates the given package path
// when the suite runs over the module.
func Applies(a *analysis.Analyzer, pkgPath string) bool {
	scope, ok := Scopes[a.Name]
	if !ok {
		return false
	}
	if scope == nil {
		return true
	}
	for _, p := range scope {
		if p == pkgPath {
			return true
		}
	}
	return false
}
