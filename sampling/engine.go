package sampling

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/sampling/estimate"
)

// Sample is one selected observation of the parent process.
type Sample = core.Sample

// Engine is a live instance of a sampling technique: ticks of the
// observed process go in through Offer, selected samples come out, and
// Snapshot exposes the running estimate at any moment without disturbing
// the stream. An engine consumes exactly one stream; build a fresh one
// per run.
//
// All methods are safe for concurrent use. The intended split is one
// goroutine driving Offer/Finish (ticks must arrive in order) while any
// number of observers call Snapshot.
type Engine struct {
	mu         sync.Mutex
	spec       Spec
	specString string
	kernel     core.Kernel
	clock      func() time.Time
	start      time.Time
	budget     int

	seen      int // ticks offered so far; doubles as the next tick index
	kept      int
	qualified int
	acc       stats.Accumulator // over kept sample values

	// Optional online Hurst estimators (WithEstimator): estIn consumes
	// every offered tick, estKept the kept sample values, so a snapshot
	// can report pre- vs post-sampling H side by side.
	estIn   estimate.Estimator
	estKept estimate.Estimator

	finished  bool
	finishErr error

	// Offer's one-tick batch and its output, kept here so the
	// single-tick form allocates nothing.
	one    [1]float64
	oneOut [1]Sample
}

// scratch pools the per-batch sample buffers of every engine. A batch's
// samples are recorded before OfferBatch returns, so a buffer is held
// only under the engine lock and the pool grows with the number of
// concurrent batches, not with the number of engines.
var scratch = sync.Pool{New: func() any { return new([]Sample) }}

// New builds an engine from a typed spec. The spec's technique must be
// registered and every parameter must be accepted: unknown names wrap
// ErrUnknownTechnique and rejected parameters surface as a *ParamError,
// so callers can branch on the failure mode.
func New(spec Spec, opts ...Option) (*Engine, error) {
	cfg := config{clock: time.Now}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("sampling: nil option")
		}
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.seed != nil {
		spec = spec.With("seed", strconv.FormatUint(*cfg.seed, 10))
	}
	// The typed build path: parameters go to the technique's factory as
	// the map they already are, never round-tripped through the string
	// syntax (which would re-tokenize values containing ',' or '=').
	kernel, err := core.Build(spec.Technique, spec.Params)
	if err != nil {
		return nil, err
	}
	now := cfg.clock()
	e := &Engine{
		spec:       spec,
		specString: spec.String(),
		kernel:     kernel,
		clock:      cfg.clock,
		start:      now,
		budget:     cfg.budget,
	}
	if cfg.estimator != "" {
		// Already validated by WithEstimator; the two instances keep the
		// input and kept-sample streams strictly separate.
		if e.estIn, err = estimate.New(cfg.estimator); err != nil {
			return nil, err
		}
		if e.estKept, err = estimate.New(cfg.estimator); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Technique returns the engine's technique name.
func (e *Engine) Technique() string { return e.kernel.Name() }

// Spec returns a copy of the engine's spec, including any parameters
// injected by options (e.g. WithSeed).
func (e *Engine) Spec() Spec {
	out := Spec{Technique: e.spec.Technique, Params: make(map[string]string, len(e.spec.Params))}
	for k, v := range e.spec.Params {
		out.Params[k] = v
	}
	return out
}

// Offer presents the next tick of the observed process, in stream order,
// and returns the sample this tick finalized, if any — possibly carrying
// an earlier index when the technique defers its decision (stratified
// picks). After Finish, Offer is a no-op returning false.
//
// Offer is OfferBatch of one tick — the same offerBatch on a
// one-element batch, minus the scratch buffer — and pays one mutex
// acquisition per tick, so ingest loops that already hold their ticks
// in a slice should call OfferBatch instead (the hub, the sampled
// daemon and sampleload all do).
func (e *Engine) Offer(value float64) (Sample, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.finished {
		return Sample{}, false
	}
	e.one[0] = value
	// A kernel emits at most one sample per tick.
	out := e.offerBatch(e.one[:], e.oneOut[:0])
	if len(out) == 0 {
		return Sample{}, false
	}
	return out[0], true
}

// OfferBatch presents a batch of ticks in stream order and returns how
// many samples the batch finalized. It is the ingest hot path: the
// engine mutex is acquired once for the whole batch, the input-side
// estimator takes the batch in one TickBatch call, and the technique's
// kernel (core.Kernel.OfferBatch) jumps from kept tick to kept tick
// instead of visiting every one. Batches of any shape produce exactly the
// samples a run of single-tick Offers would (asserted in
// TestOfferBatchMatchesOffer; internal/core checks each kernel against
// a per-tick oracle).
//
// The batch is atomic with respect to Finish and Snapshot — an
// observer sees either none or all of it. After Finish, OfferBatch is
// a no-op returning 0.
//
//samplelint:hotpath
func (e *Engine) OfferBatch(values []float64) (kept int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.finished {
		return 0
	}
	buf := scratch.Get().(*[]Sample)
	*buf = e.offerBatch(values, (*buf)[:0])
	kept = len(*buf)
	scratch.Put(buf)
	return kept
}

// offerBatch advances the stream by a batch and returns dst extended by
// the samples it recorded. The input-side estimator sees every tick —
// it estimates the unsampled process — and the kernel sees the batch
// once. Callers hold e.mu and have checked e.finished.
//
//samplelint:hotpath
func (e *Engine) offerBatch(values []float64, dst []Sample) []Sample {
	if e.estIn != nil {
		e.estIn.TickBatch(values)
	}
	dst = e.kernel.OfferBatch(e.seen, values, dst)
	e.seen += len(values)
	if e.budget > 0 && e.kept+len(dst) > e.budget {
		dst = dst[:max(0, e.budget-e.kept)]
	}
	for _, s := range dst {
		e.record(s)
	}
	return dst
}

//samplelint:hotpath
func (e *Engine) record(s Sample) {
	e.kept++
	e.acc.Add(s.Value)
	if e.estKept != nil {
		e.estKept.Tick(s.Value)
	}
	if s.Qualified {
		e.qualified++
	}
}

// Finish declares the end of the stream and returns the samples that
// could only be decided with the whole stream seen (e.g. a simple random
// draw), or the engine's deferred error. Finish is idempotent: the first
// call finalizes and returns the tail; later calls return (nil, err)
// with the same error. It does not invalidate Snapshot, which keeps
// reporting the final state.
func (e *Engine) Finish() ([]Sample, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.finished {
		return nil, e.finishErr
	}
	e.finished = true
	tail, err := e.kernel.Finish()
	if err != nil {
		e.finishErr = err
		return nil, err
	}
	if e.budget > 0 {
		room := e.budget - e.kept
		if room < 0 {
			room = 0
		}
		if len(tail) > room {
			tail = tail[:room]
		}
	}
	for _, s := range tail {
		e.record(s)
	}
	return tail, nil
}

// Finished reports whether Finish has been called — the cheap form of
// Snapshot().Finished for callers that only need the lifecycle state.
func (e *Engine) Finished() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.finished
}

// Snapshot returns the engine's running summary: kept/seen counts, the
// mean of the kept values and its 95% confidence interval. It never
// finalizes anything and is safe to call concurrently while ticks flow;
// counters are monotonically non-decreasing across snapshots.
func (e *Engine) Snapshot() Summary {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.clock()
	s := Summary{
		Technique: e.kernel.Name(),
		Spec:      e.specString,
		Seen:      e.seen,
		Kept:      e.kept,
		Qualified: e.qualified,
		Budget:    e.budget,
		Mean:      e.acc.Mean(),
		Variance:  e.acc.SampleVariance(),
		Finished:  e.finished,
		Err:       e.finishErr,
		At:        now,
		Uptime:    now.Sub(e.start),
	}
	s.CILow, s.CIHigh = ci95(&e.acc)
	if e.estIn != nil {
		s.Hurst = newHurstSummary(e.estIn.Estimate(), e.estKept.Estimate())
	}
	return s
}

// keptEstimate returns the live kept-side Hurst estimate, zero when the
// engine carries no kept-side estimator. Group.Snapshot pairs it with
// the group's shared input-side estimate; a standalone engine reports
// both sides through Snapshot().Hurst instead.
func (e *Engine) keptEstimate() estimate.Estimate {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.estKept == nil {
		return estimate.Estimate{}
	}
	return e.estKept.Estimate()
}

// ci95 computes the normal-approximation 95% confidence interval for the
// mean of the accumulated values; NaNs below two observations.
func ci95(acc *stats.Accumulator) (lo, hi float64) {
	n := acc.N()
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	half := 1.96 * math.Sqrt(acc.SampleVariance()/float64(n))
	m := acc.Mean()
	return m - half, m + half
}

// Sample runs the engine over a complete series and returns every
// selected observation in index order — the paper's batch formulation
// f -> []Sample, driven through the same streaming state machine so
// batch and tick-by-tick use produce identical output. It must be the
// engine's only use: Sample offers every element and then finalizes.
func (e *Engine) Sample(f []float64) ([]Sample, error) {
	if len(f) == 0 {
		return nil, fmt.Errorf("sampling: cannot sample an empty series")
	}
	e.mu.Lock()
	var out []Sample
	if !e.finished {
		out = e.offerBatch(f, make([]Sample, 0, 16))
	}
	e.mu.Unlock()
	tail, err := e.Finish()
	if err != nil {
		return nil, err
	}
	return append(out, tail...), nil
}
