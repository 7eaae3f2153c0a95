package traffic

import (
	"fmt"
	"sort"
)

// BinBytes converts a time-sorted packet trace into the rate process f(t):
// bytes per second measured over consecutive bins of width granularity
// seconds. This is "the traffic process measured at some fixed time
// granularity" of the paper's Section II; dividing by the granularity
// expresses every bin in bytes/second so means are rate-comparable across
// granularities (the units of the paper's Figures 6, 13, 17, 19).
func BinBytes(pkts []Packet, granularity, duration float64) ([]float64, error) {
	if granularity <= 0 {
		return nil, fmt.Errorf("traffic: granularity %g must be positive", granularity)
	}
	if len(pkts) == 0 {
		return nil, fmt.Errorf("traffic: cannot bin an empty trace")
	}
	if duration <= 0 {
		duration = pkts[len(pkts)-1].Time + granularity
	}
	n := int(duration / granularity)
	if n < 1 {
		return nil, fmt.Errorf("traffic: duration %g shorter than one bin (%g)", duration, granularity)
	}
	out := make([]float64, n)
	for _, p := range pkts {
		idx := int(p.Time / granularity)
		if idx < 0 || idx >= n {
			continue
		}
		out[idx] += float64(p.Size)
	}
	inv := 1 / granularity
	for i := range out {
		out[i] *= inv
	}
	return out, nil
}

// OnPeriods returns the lengths (in ticks) of the maximal runs where
// f(t) > threshold — the "1-burst periods" B of the paper's Section V-B,
// whose heavy-tailedness justifies BSS. Runs touching either boundary are
// included (their censoring only shortens the empirical tail).
func OnPeriods(f []float64, threshold float64) []float64 {
	out := make([]float64, 0, 64)
	run := 0
	for _, v := range f {
		if v > threshold {
			run++
			continue
		}
		if run > 0 {
			out = append(out, float64(run))
			run = 0
		}
	}
	if run > 0 {
		out = append(out, float64(run))
	}
	return out
}

// SortedCopy returns an ascending copy of x (test/diagnostic helper shared
// by the experiments).
func SortedCopy(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	sort.Float64s(out)
	return out
}
