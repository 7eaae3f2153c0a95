package sampling

import (
	"strconv"

	"repro/internal/core"
)

// InstanceStats aggregates repeated sampling experiments ("instances" in
// the paper's terminology: different systematic offsets, or different
// random draws at the same rate).
type InstanceStats = core.InstanceStats

// RunInstances executes n independent sampling instances described by
// the specs the factory yields and reduces them against the known real
// mean. The factory receives the instance number (0..n-1) and typically
// varies the systematic offset or the random seed; see
// SystematicInstances and BSSInstances for the standard variations.
func RunInstances(f []float64, realMean float64, n int, factory func(instance int) (Spec, error)) (InstanceStats, error) {
	return core.RunInstances(f, realMean, n, func(i int) (core.Kernel, error) {
		spec, err := factory(i)
		if err != nil {
			return nil, err
		}
		return core.Build(spec.Technique, spec.Params)
	})
}

// SystematicInstances yields systematic specs whose offsets are spread
// evenly across the sampling interval — the paper's notion of distinct
// systematic instances ("different starting sampling points").
func SystematicInstances(interval int) func(int) (Spec, error) {
	return func(i int) (Spec, error) {
		return Spec{Technique: "systematic", Params: map[string]string{
			"interval": strconv.Itoa(interval),
			"offset":   strconv.Itoa(core.SpreadOffset(i, interval)),
		}}, nil
	}
}

// BSSInstances spreads the offset of a base BSS spec across its sampling
// interval, holding every other parameter fixed. The base spec must
// carry interval=N or rate=R.
func BSSInstances(base Spec) func(int) (Spec, error) {
	return func(i int) (Spec, error) {
		interval, err := core.SpecInterval(base.Technique, base.Params)
		if err != nil {
			return Spec{}, err
		}
		return base.With("offset", strconv.Itoa(core.SpreadOffset(i, interval))), nil
	}
}
