package sampling

import "repro/internal/core"

// BSSDesign is the paper's BSS parameter theory (Section V): the
// relationships between the tail index alpha, the threshold multiplier
// epsilon, the extra-sample count L, the bias ratio xi and the overhead,
// with solvers for each direction (LUnbiased, EpsForTarget,
// DesignForRate, ...).
type BSSDesign = core.BSSDesign

// NewBSSDesign validates the traffic tail index alpha and returns the
// design calculator for it.
func NewBSSDesign(alpha float64) (BSSDesign, error) { return core.NewBSSDesign(alpha) }
