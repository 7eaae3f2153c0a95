package sampling_test

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/lrd"
	"repro/sampling"
	"repro/sampling/estimate"
)

// fiveSpecs is one spec per registered technique, seeds inline so the
// same spec builds the same engine standalone and inside a group.
func fiveSpecs(t *testing.T) []sampling.Spec {
	t.Helper()
	specs := []sampling.Spec{
		sampling.MustParse("systematic:interval=50,offset=7"),
		sampling.MustParse("stratified:interval=50,seed=11"),
		sampling.MustParse("simple:n=100,seed=5"),
		sampling.MustParse("bernoulli:rate=0.02,seed=13"),
		sampling.MustParse("bss:interval=50,L=5,eps=1.0"),
	}
	// The registry lists six names but "simple" aliases "simple-random";
	// these five specs cover every distinct technique.
	distinct := make(map[string]bool)
	for _, spec := range specs {
		eng, err := sampling.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		distinct[eng.Technique()] = true
	}
	if len(distinct) != 5 {
		t.Fatalf("fiveSpecs covers %d distinct techniques, want 5", len(distinct))
	}
	return specs
}

func groupSeries(seed uint64, n int) []float64 {
	rng := dist.NewRand(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.ExpFloat64() * 10
	}
	return out
}

// TestGroupMatchesStandaloneEngines is the group's core contract (and
// the PR's acceptance criterion): over all five registered techniques,
// a group member's kept samples are byte-identical to a standalone
// engine built from the same spec and fed the same stream — through
// both the batch form (Group.Sample) and the streaming form
// (OfferBatch in ragged batches, then Finish).
func TestGroupMatchesStandaloneEngines(t *testing.T) {
	specs := fiveSpecs(t)
	series := groupSeries(99, 5000)

	reference := make([][]sampling.Sample, len(specs))
	for i, spec := range specs {
		eng, err := sampling.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		if reference[i], err = eng.Sample(series); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("batch", func(t *testing.T) {
		g, err := sampling.NewGroup(specs)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := g.Sample(series)
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			assertSameSamples(t, specs[i].String(), outs[i], reference[i])
		}
	})

	t.Run("streaming", func(t *testing.T) {
		// The reference: standalone engines fed the whole series as one
		// batch, while the group takes 37-tick batches, so this subtest is
		// also a batch-shape equivalence check.
		refSums := make([]sampling.Summary, len(specs))
		refTails := make([][]sampling.Sample, len(specs))
		for i, spec := range specs {
			eng, err := sampling.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			eng.OfferBatch(series)
			if refTails[i], err = eng.Finish(); err != nil {
				t.Fatal(err)
			}
			refSums[i] = eng.Snapshot()
		}
		g, err := sampling.NewGroup(specs)
		if err != nil {
			t.Fatal(err)
		}
		var kept int
		for off := 0; off < len(series); {
			end := off + 37 // deliberately not a divisor of the length
			if end > len(series) {
				end = len(series)
			}
			k, err := g.OfferBatch(series[off:end])
			if err != nil {
				t.Fatal(err)
			}
			kept += k
			off = end
		}
		tails, err := g.Finish()
		if err != nil {
			t.Fatal(err)
		}
		cmp := g.Snapshot()
		if cmp.Seen != len(series) || !cmp.Finished {
			t.Fatalf("comparison after finish: seen=%d finished=%v", cmp.Seen, cmp.Finished)
		}
		for i := range specs {
			sum, want := cmp.Members[i].Summary, refSums[i]
			if sum.Kept != want.Kept || sum.Seen != want.Seen || sum.Qualified != want.Qualified ||
				!sameOrBothNaN(sum.Mean, want.Mean) || !sameOrBothNaN(sum.Variance, want.Variance) {
				t.Errorf("%s diverged from the standalone engine:\n got kept=%d seen=%d qual=%d mean=%g var=%g\nwant kept=%d seen=%d qual=%d mean=%g var=%g",
					specs[i], sum.Kept, sum.Seen, sum.Qualified, sum.Mean, sum.Variance,
					want.Kept, want.Seen, want.Qualified, want.Mean, want.Variance)
			}
			assertSameSamples(t, specs[i].String()+" tail", tails[i], refTails[i])
			kept -= sum.Kept - len(tails[i])
		}
		if kept != 0 {
			t.Errorf("OfferBatch kept-count total disagrees with member summaries by %d", kept)
		}
	})
}

func assertSameSamples(t *testing.T, label string, got, want []sampling.Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d samples, want %d", label, len(got), len(want))
		return
	}
	for j := range got {
		if got[j] != want[j] {
			t.Errorf("%s: sample %d = %+v, want %+v", label, j, got[j], want[j])
			return
		}
	}
}

func sameOrBothNaN(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b
}

// TestGroupSharedEstimator: with WithEstimator the group runs one
// input-side estimator shared by all members — every member's Hurst
// block reports the identical input point — and per-member kept-side
// estimates feed the fidelity drift.
func TestGroupSharedEstimator(t *testing.T) {
	gen, err := lrd.NewFGN(0.8, 1<<13, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	series := gen.Generate(dist.NewRand(7))
	specs := []sampling.Spec{
		sampling.MustParse("systematic:interval=8"),
		sampling.MustParse("systematic:interval=16"),
		sampling.MustParse("bernoulli:rate=0.1,seed=3"),
	}
	g, err := sampling.NewGroup(specs, sampling.WithEstimator(estimate.AggVar))
	if err != nil {
		t.Fatal(err)
	}
	g.OfferBatch(series)
	cmp := g.Snapshot()
	if cmp.Method != estimate.AggVar {
		t.Fatalf("comparison method = %q, want aggvar", cmp.Method)
	}
	if cmp.Hurst == nil || !cmp.Hurst.OK {
		t.Fatalf("shared input estimate unresolved: %+v", cmp.Hurst)
	}
	if cmp.Hurst.H < 0.5 || cmp.Hurst.H > 1.0 {
		t.Errorf("input H = %g, want LRD range for H=0.8 fGn", cmp.Hurst.H)
	}
	// The input-side reference against a standalone engine's own
	// estimator over the same stream: identical ticks, identical ladder,
	// identical estimate.
	ref, err := sampling.New(specs[0], sampling.WithEstimator(estimate.AggVar))
	if err != nil {
		t.Fatal(err)
	}
	ref.OfferBatch(series)
	if want := ref.Snapshot().Hurst.Input; *cmp.Hurst != want {
		t.Errorf("shared input point %+v differs from standalone input point %+v", *cmp.Hurst, want)
	}
	for i, m := range cmp.Members {
		hs := m.Summary.Hurst
		if hs == nil {
			t.Fatalf("member %d has no Hurst block", i)
		}
		if hs.Input != *cmp.Hurst {
			t.Errorf("member %d input point %+v differs from the shared one %+v", i, hs.Input, *cmp.Hurst)
		}
		if hs.Kept.OK && !sameOrBothNaN(m.Fidelity.HurstDrift, hs.Kept.H-hs.Input.H) {
			t.Errorf("member %d drift %g, want kept-input %g", i, m.Fidelity.HurstDrift, hs.Kept.H-hs.Input.H)
		}
	}
}

// TestGroupFidelity pins the fidelity arithmetic against the input
// accumulator on a tiny deterministic stream.
func TestGroupFidelity(t *testing.T) {
	g, err := sampling.NewGroup([]sampling.Spec{sampling.MustParse("systematic:interval=2")})
	if err != nil {
		t.Fatal(err)
	}
	// systematic:interval=2 keeps ticks 0, 2, 4, ... -> values 1, 3, 5.
	g.OfferBatch([]float64{1, 2, 3, 4, 5, 6})
	cmp := g.Snapshot()
	if cmp.Seen != 6 || cmp.Mean != 3.5 {
		t.Fatalf("input reference: seen=%d mean=%g, want 6 / 3.5", cmp.Seen, cmp.Mean)
	}
	f := cmp.Members[0].Fidelity
	if f.KeptRatio != 0.5 {
		t.Errorf("KeptRatio = %g, want 0.5", f.KeptRatio)
	}
	if want := 1 - 3.0/3.5; math.Abs(f.MeanBias-want) > 1e-15 {
		t.Errorf("MeanBias = %g, want %g", f.MeanBias, want)
	}
	if want := 1 - 4.0/3.5; math.Abs(f.VarianceBias-want) > 1e-15 {
		t.Errorf("VarianceBias = %g, want %g (kept var 4 over input var 3.5)", f.VarianceBias, want)
	}
	if !math.IsNaN(f.HurstDrift) {
		t.Errorf("HurstDrift without an estimator = %g, want NaN", f.HurstDrift)
	}
	if cmp.Hurst != nil || cmp.Method != "" {
		t.Errorf("estimator-less comparison carries a Hurst point: %+v %q", cmp.Hurst, cmp.Method)
	}
}

// TestGroupErrors: construction and lifecycle failure modes.
func TestGroupErrors(t *testing.T) {
	if _, err := sampling.NewGroup(nil); err == nil {
		t.Error("empty group built without error")
	}
	_, err := sampling.NewGroup([]sampling.Spec{
		sampling.MustParse("systematic:interval=10"),
		sampling.MustParse("no-such-technique"),
	})
	if err == nil || !strings.Contains(err.Error(), "member 1") {
		t.Errorf("bad member error does not name the member: %v", err)
	}
	// A failing member finish (5-sample draw over a 3-tick stream) joins
	// into the group error but still finalizes the rest.
	g, err := sampling.NewGroup([]sampling.Spec{
		sampling.MustParse("simple:n=5,seed=1"),
		sampling.MustParse("systematic:interval=2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.OfferBatch([]float64{1, 2, 3})
	if _, err := g.Finish(); err == nil {
		t.Error("short simple draw finished without error")
	}
	cmp := g.Snapshot()
	if cmp.Members[0].Summary.Err == nil {
		t.Error("failing member's summary lost its error")
	}
	if cmp.Members[1].Summary.Err != nil || !cmp.Members[1].Summary.Finished {
		t.Errorf("healthy member not finalized cleanly: %+v", cmp.Members[1].Summary)
	}
	// Idempotent finish, dead offers.
	if _, err2 := g.Finish(); err2 == nil {
		t.Error("second Finish lost the error")
	}
	if kept, err := g.OfferBatch([]float64{9}); kept != 0 || !errors.Is(err, sampling.ErrFinished) {
		t.Errorf("post-finish OfferBatch = (%d, %v), want (0, ErrFinished)", kept, err)
	}
	if cmp := g.Snapshot(); cmp.Seen != 3 {
		t.Errorf("post-finish offer advanced seen to %d", cmp.Seen)
	}
}

// TestGroupConcurrentSnapshot hammers Snapshot while one writer streams
// batches: every observed comparison must be internally consistent —
// each member observed at exactly the comparison's input tick count.
func TestGroupConcurrentSnapshot(t *testing.T) {
	specs := fiveSpecs(t)
	g, err := sampling.NewGroup(specs, sampling.WithEstimator(estimate.AggVar))
	if err != nil {
		t.Fatal(err)
	}
	series := groupSeries(3, 20000)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				cmp := g.Snapshot()
				for i, m := range cmp.Members {
					if m.Summary.Seen != cmp.Seen {
						t.Errorf("member %d observed at %d ticks inside a %d-tick comparison",
							i, m.Summary.Seen, cmp.Seen)
						return
					}
				}
			}
		}()
	}
	for off := 0; off < len(series); off += 512 {
		end := off + 512
		if end > len(series) {
			end = len(series)
		}
		g.OfferBatch(series[off:end])
	}
	close(done)
	wg.Wait()
	if _, err := g.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupClockAndSpecs: the group clock stamps the comparison and
// each member's summary carries its spec.
func TestGroupClockAndSpecs(t *testing.T) {
	at := time.Date(2026, 7, 27, 9, 0, 0, 0, time.UTC)
	g, err := sampling.NewGroup(
		[]sampling.Spec{sampling.MustParse("bernoulli:rate=0.5,seed=21")},
		sampling.WithBudget(4),
		sampling.WithClock(func() time.Time { return at }),
	)
	if err != nil {
		t.Fatal(err)
	}
	g.OfferBatch(groupSeries(1, 100))
	cmp := g.Snapshot()
	if spec := cmp.Members[0].Summary.Spec; spec != "bernoulli:rate=0.5,seed=21" {
		t.Errorf("member spec %q, want the group's spec", spec)
	}
	if !cmp.At.Equal(at) || cmp.Uptime != 0 {
		t.Errorf("clock not honored: at=%v uptime=%v", cmp.At, cmp.Uptime)
	}
	if sum := cmp.Members[0].Summary; sum.Kept != 4 || sum.Budget != 4 {
		t.Errorf("WithBudget not applied to members: kept=%d budget=%d", sum.Kept, sum.Budget)
	}
}

// TestGroupEmptySpecsTyped: the spec-less group error is typed so
// services can map it to a client error without duplicating the check.
func TestGroupEmptySpecsTyped(t *testing.T) {
	_, err := sampling.NewGroup(nil)
	if !errors.Is(err, sampling.ErrBadSpec) {
		t.Errorf("empty-group error = %v, want ErrBadSpec in the chain", err)
	}
}
