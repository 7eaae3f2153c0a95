package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysistest"
)

// Each analyzer runs over its fixture package: every flagged line
// carries a // want expectation, every allowed shape has none, and
// the seeded regressions (an aliased io import, a local value named io
// with its own ReadAll) pin the false resolutions the retired
// hotpath_test.go string guard made. Dropping an analyzer from
// the suite fails TestSuiteComplete in suite_test.go; weakening one
// fails its fixture here.

func TestNoReadAll(t *testing.T) {
	analysistest.Run(t, "testdata", lint.NoReadAll, "noreadall")
}

func TestDetSource(t *testing.T) {
	analysistest.Run(t, "testdata", lint.DetSource, "detsource")
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", lint.HotAlloc, "hotalloc")
}

func TestNanWire(t *testing.T) {
	analysistest.Run(t, "testdata", lint.NanWire, "nanwire")
	analysistest.Run(t, "testdata", lint.NanWire, "nanwire/estimate")
}
