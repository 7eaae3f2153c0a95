package sampling

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/sampling/estimate"
)

// Group fans one input stream out to several sampling engines, one per
// spec, so competing techniques can be compared side by side on exactly
// the same traffic — the paper's central experiment as a live object.
// Every offered tick reaches every member engine in the same order, and
// the group keeps the unsampled reference itself: a single shared
// accumulator over the raw input (its mean and variance are what each
// technique is trying to preserve) plus, with WithEstimator, a single
// shared input-side Hurst estimator, so the input-side work is paid
// once per tick rather than once per member.
//
// Snapshot returns a Comparison: the input-side reference next to each
// member's Summary and its Fidelity score against that reference.
//
// All methods are safe for concurrent use under the same contract as
// Engine: one goroutine drives OfferBatch/Finish (ticks must arrive in
// order) while any number of observers call Snapshot. Each member is
// fed through the engine it would be as a standalone — a member's kept
// samples are identical to those of a bare Engine built from the same
// spec over the same stream.
type Group struct {
	mu      sync.Mutex
	clock   func() time.Time
	start   time.Time
	method  estimate.Method
	members []*Engine

	seen     int               // ticks offered to the group so far
	inputAcc stats.Accumulator // over every offered tick — the unsampled reference
	estIn    estimate.Estimator
	// moments is estIn when its state already holds inputAcc: aggvar's
	// ladder level 0 starts at zero and takes every input tick in order,
	// so the group reads its moments instead of folding the batch twice.
	// They are the ladder's batch-merged moments, the same bytes for the
	// same batches and within stats.FoldTolerance of one Add per tick
	// for any others. Nil otherwise.
	moments inputMoments

	finished  bool
	finishErr error
}

// NewGroup builds a comparison group: one member engine per spec, all
// consuming the same input stream. At least one spec is required; a
// failing member build fails the whole group with the member's index
// and spec in the error, the underlying types intact.
//
// Options apply group-wide: WithBudget is handed to every member (a
// randomized member's seed is a parameter of its own spec), WithClock
// times the whole comparison, and WithEstimator attaches the shared
// input-side estimator plus one kept-side estimator per member — N+1
// instances where N separate engines would run 2N.
func NewGroup(specs []Spec, opts ...Option) (*Group, error) {
	if len(specs) == 0 {
		// Typed so services can map it to a client error (the sampled
		// daemon's statusFor turns ErrBadSpec into a 400).
		return nil, fmt.Errorf("sampling: a group needs at least one spec: %w", ErrBadSpec)
	}
	cfg := config{clock: time.Now}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("sampling: nil option")
		}
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	g := &Group{clock: cfg.clock, method: cfg.estimator, start: cfg.clock()}
	if cfg.estimator != "" {
		est, err := estimate.New(cfg.estimator)
		if err != nil {
			return nil, err
		}
		g.setEstimator(est)
	}
	for i, spec := range specs {
		// Members rebuild their options from the parsed config rather
		// than replaying opts: the estimator must not be duplicated into
		// every engine (the group owns the input side) and the clock must
		// be the group's.
		mopts := []Option{WithClock(cfg.clock)}
		if cfg.budget > 0 {
			mopts = append(mopts, WithBudget(cfg.budget))
		}
		eng, err := New(spec, mopts...)
		if err != nil {
			return nil, fmt.Errorf("sampling: group member %d (%s): %w", i, spec, err)
		}
		if cfg.estimator != "" {
			// Validated above; the member tracks only its kept side — the
			// input side is the group's shared estimator.
			eng.estKept, _ = estimate.New(cfg.estimator)
		}
		g.members = append(g.members, eng)
	}
	return g, nil
}

// OfferBatch presents a batch of ticks, in stream order, to every
// member and returns how many samples the batch finalized across all of
// them. The input-side accumulator and estimator consume each tick
// exactly once regardless of the member count. After Finish, OfferBatch
// takes nothing and fails with ErrFinished.
//
//samplelint:hotpath
func (g *Group) OfferBatch(values []float64) (kept int, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.finished {
		return 0, ErrFinished
	}
	g.offerInput(values)
	for _, eng := range g.members {
		// Members finish only with the group, under g.mu, so none can
		// have finished here.
		k, _ := eng.OfferBatch(values)
		kept += k
	}
	return kept, nil
}

// inputMoments is implemented by estimators whose state includes the
// running moments of every tick they consumed.
type inputMoments interface {
	Moments() stats.AccumulatorState
}

// setEstimator installs the shared input-side estimator.
func (g *Group) setEstimator(est estimate.Estimator) {
	g.estIn = est
	g.moments, _ = est.(inputMoments)
}

// offerInput feeds a batch to the input-side reference: the estimator
// takes it in one TickBatch, and the accumulator in one AddAll unless
// the estimator's state already holds its moments.
//
//samplelint:hotpath
func (g *Group) offerInput(values []float64) {
	g.seen += len(values)
	if g.estIn != nil {
		g.estIn.TickBatch(values)
	}
	if g.moments != nil {
		g.inputAcc.SetState(g.moments.Moments())
	} else {
		g.inputAcc.AddAll(values)
	}
}

// Finish declares the end of the stream to every member and returns the
// per-member end-of-stream tails, in member order. Member finalization
// errors are joined (and each also stays visible in its member's
// Summary.Err); every member is finalized even when an earlier one
// fails. Finish is idempotent: later calls return (nil, err) with the
// same error. It does not invalidate Snapshot.
func (g *Group) Finish() ([][]Sample, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.finished {
		return nil, g.finishErr
	}
	g.finished = true
	tails := make([][]Sample, len(g.members))
	var errs []error
	for i, eng := range g.members {
		tail, err := eng.Finish()
		tails[i] = tail
		if err != nil {
			errs = append(errs, fmt.Errorf("member %d (%s): %w", i, eng.specString, err))
		}
	}
	g.finishErr = errors.Join(errs...)
	return tails, g.finishErr
}

// Snapshot returns the group's running Comparison without disturbing
// the stream: the unsampled input reference (count, moments and, with
// an estimator, the shared input-side Hurst point) plus each member's
// Summary and Fidelity. Because the group lock serializes snapshots
// against batches, every member is observed at the same input tick
// count — the property that makes the per-technique numbers comparable.
func (g *Group) Snapshot() Comparison {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.clock()
	c := Comparison{
		Seen:     g.seen,
		Mean:     g.inputAcc.Mean(),
		Variance: g.inputAcc.SampleVariance(),
		Method:   g.method,
		Members:  make([]TechniqueReport, len(g.members)),
		Finished: g.finished,
		At:       now,
		Uptime:   now.Sub(g.start),
	}
	if g.estIn != nil {
		in := g.estIn.Estimate()
		c.Hurst = &in
	}
	for i, eng := range g.members {
		// A member's input side is the group's shared estimator; its own
		// engine tracks only the kept side.
		eng.mu.Lock()
		sum := eng.summary(now, g.method, c.Hurst)
		eng.mu.Unlock()
		c.Members[i] = TechniqueReport{Summary: sum, Fidelity: newFidelity(&c, sum)}
	}
	return c
}

// Sample runs the whole group over a complete series and returns every
// member's selected observations, in member then index order — the
// paper's batch comparison, f -> one []Sample per technique, driven
// through the same engines so whole-series and batch-by-batch kept
// samples are identical. Like Engine.Sample it must be the group's only use: it
// offers every element and then finalizes. Member finalization errors
// are joined; the returned slices are valid for the members that
// finished cleanly.
func (g *Group) Sample(f []float64) ([][]Sample, error) {
	if len(f) == 0 {
		return nil, fmt.Errorf("sampling: cannot sample an empty series")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.finished {
		return nil, fmt.Errorf("sampling: group: %w", ErrFinished)
	}
	g.offerInput(f)
	g.finished = true
	outs := make([][]Sample, len(g.members))
	var errs []error
	for i, eng := range g.members {
		out, err := eng.Sample(f)
		outs[i] = out
		if err != nil {
			errs = append(errs, fmt.Errorf("member %d (%s): %w", i, eng.specString, err))
		}
	}
	g.finishErr = errors.Join(errs...)
	return outs, g.finishErr
}

// Fidelity scores how faithfully one technique's kept samples track the
// unsampled input stream it was offered — the group's per-technique
// verdict. All fields are NaN until both sides carry enough data.
type Fidelity struct {
	KeptRatio    float64 `json:"kept_ratio"`    // kept samples / input ticks — the achieved sampling rate
	MeanBias     float64 `json:"mean_bias"`     // eta = 1 - keptMean/inputMean (Eq. 21 against the live input)
	VarianceBias float64 `json:"variance_bias"` // 1 - keptVariance/inputVariance, same convention as MeanBias
	HurstDrift   float64 `json:"hurst_drift"`   // kept H - input H; NaN until both sides resolve (needs WithEstimator)
}

// newFidelity scores one member summary against the comparison's input
// reference. Eta's convention everywhere: positive bias means the
// technique under-estimates.
func newFidelity(c *Comparison, sum Summary) Fidelity {
	f := Fidelity{
		KeptRatio:    math.NaN(),
		MeanBias:     Eta(sum.Mean, c.Mean),
		VarianceBias: Eta(sum.Variance, c.Variance),
		HurstDrift:   math.NaN(),
	}
	if c.Seen > 0 {
		f.KeptRatio = float64(sum.Kept) / float64(c.Seen)
	}
	if sum.Hurst != nil {
		f.HurstDrift = sum.Hurst.Drift
	}
	return f
}

// TechniqueReport is one member's slot in a Comparison: its live
// Summary (with the Hurst block's input side filled from the group's
// shared estimator) plus its Fidelity against the unsampled input.
type TechniqueReport struct {
	Summary  Summary  `json:"summary"`
	Fidelity Fidelity `json:"fidelity"`
}

// Comparison is a point-in-time view of a live Group, returned by
// Group.Snapshot: the unsampled input reference every member is judged
// against, then one TechniqueReport per member in member order. All
// counters are monotonically non-decreasing across successive
// snapshots, and every member is observed at the same Seen.
type Comparison struct {
	Seen     int     `json:"seen"`     // ticks offered to the group so far
	Mean     float64 `json:"mean"`     // running mean of the unsampled input (NaN before the first tick)
	Variance float64 `json:"variance"` // running unbiased variance of the unsampled input (NaN below 2)

	// Method and Hurst carry the shared input-side estimate when the
	// group was built with WithEstimator; "" and nil otherwise.
	Method estimate.Method `json:"method,omitempty"`
	Hurst  *HurstPoint     `json:"hurst,omitempty"`

	Members []TechniqueReport `json:"members"`

	Finished bool          `json:"finished"`  // Finish (or Sample) has been called
	At       time.Time     `json:"at"`        // when the snapshot was taken (per the group's clock)
	Uptime   time.Duration `json:"uptime_ns"` // time since the group was built
}
