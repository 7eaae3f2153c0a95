package main

import (
	"fmt"
	"math"
	"slices"

	"repro/sampling"
)

// The output oracle: the daemon's detached state of every stream is
// restored in process and compared, exactly, with an engine that was
// fed the same ticks directly and never went through HTTP, a hub or a
// move. Both are then finished, so even samples only decided at end of
// stream (the simple-random reservoir) are compared.

// compareEngines reports the first difference between a restored
// daemon engine and its oracle; skew is added to the oracle's kept
// count.
func compareEngines(got, want *sampling.Engine, skew int) error {
	if err := sameSummary(got.Snapshot(), want.Snapshot(), skew); err != nil {
		return fmt.Errorf("live: %w", err)
	}
	gt, gerr := got.Finish()
	wt, werr := want.Finish()
	if (gerr == nil) != (werr == nil) {
		return fmt.Errorf("finish error %v, oracle %v", gerr, werr)
	}
	if !slices.Equal(gt, wt) {
		return fmt.Errorf("end-of-stream samples differ (%d vs %d)", len(gt), len(wt))
	}
	if err := sameSummary(got.Snapshot(), want.Snapshot(), skew); err != nil {
		return fmt.Errorf("finished: %w", err)
	}
	return nil
}

// compareGroups is compareEngines for comparison groups: the shared
// input reference plus every member.
func compareGroups(got, want *sampling.Group, skew int) error {
	check := func(stage string) error {
		g, w := got.Snapshot(), want.Snapshot()
		if g.Seen != w.Seen || !sameFloat(g.Mean, w.Mean) || !sameFloat(g.Variance, w.Variance) {
			return fmt.Errorf("%s: input seen %d mean %v, oracle %d %v", stage, g.Seen, g.Mean, w.Seen, w.Mean)
		}
		if (g.Hurst == nil) != (w.Hurst == nil) || g.Hurst != nil && !sameFloat(g.Hurst.H, w.Hurst.H) {
			return fmt.Errorf("%s: input Hurst %v, oracle %v", stage, g.Hurst, w.Hurst)
		}
		if len(g.Members) != len(w.Members) {
			return fmt.Errorf("%s: %d members, oracle %d", stage, len(g.Members), len(w.Members))
		}
		for i := range g.Members {
			if err := sameSummary(g.Members[i].Summary, w.Members[i].Summary, skew); err != nil {
				return fmt.Errorf("%s: member %d: %w", stage, i, err)
			}
		}
		return nil
	}
	if err := check("live"); err != nil {
		return err
	}
	gt, gerr := got.Finish()
	wt, werr := want.Finish()
	if (gerr == nil) != (werr == nil) {
		return fmt.Errorf("finish error %v, oracle %v", gerr, werr)
	}
	for i := range wt {
		if i >= len(gt) || !slices.Equal(gt[i], wt[i]) {
			return fmt.Errorf("member %d end-of-stream samples differ", i)
		}
	}
	return check("finished")
}

func sameSummary(g, w sampling.Summary, skew int) error {
	w.Kept += skew
	switch {
	case g.Spec != w.Spec:
		return fmt.Errorf("spec %q, oracle %q", g.Spec, w.Spec)
	case g.Seen != w.Seen:
		return fmt.Errorf("seen %d, oracle %d", g.Seen, w.Seen)
	case g.Kept != w.Kept:
		return fmt.Errorf("kept %d, oracle %d", g.Kept, w.Kept)
	case g.Qualified != w.Qualified:
		return fmt.Errorf("qualified %d, oracle %d", g.Qualified, w.Qualified)
	case !sameFloat(g.Mean, w.Mean) || !sameFloat(g.Variance, w.Variance):
		return fmt.Errorf("kept mean %v, oracle %v", g.Mean, w.Mean)
	case (g.Hurst == nil) != (w.Hurst == nil):
		return fmt.Errorf("Hurst block present %v, oracle %v", g.Hurst != nil, w.Hurst != nil)
	case g.Hurst != nil && !sameFloat(g.Hurst.Kept.H, w.Hurst.Kept.H):
		return fmt.Errorf("kept-side H %v, oracle %v", g.Hurst.Kept.H, w.Hurst.Kept.H)
	case g.Hurst != nil && !sameFloat(g.Hurst.Input.H, w.Hurst.Input.H):
		return fmt.Errorf("input-side H %v, oracle %v", g.Hurst.Input.H, w.Hurst.Input.H)
	}
	return nil
}

// skewFor applies the self-test's skew to the first stream only.
func skewFor(i, skew int) int {
	if i == 0 {
		return skew
	}
	return 0
}

// sameFloat is bit equality, with every NaN equal to every other.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkAll runs one comparison per index on two goroutines and counts
// the mismatches, returning the first.
func checkAll(n int, compare func(i int) error) (mismatched int, first error) {
	results := make([]error, n)
	done := make(chan struct{}, 2)
	for part := 0; part < 2; part++ {
		go func() {
			for i := part; i < n; i += 2 {
				results[i] = compare(i)
			}
			done <- struct{}{}
		}()
	}
	<-done
	<-done
	for _, err := range results {
		if err != nil {
			if first == nil {
				first = err
			}
			mismatched++
		}
	}
	return mismatched, first
}
