package sampling

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/sampling/estimate"
)

// Sample is one selected observation of the parent process.
type Sample = core.Sample

// Engine is a live instance of a sampling technique: batches of ticks
// of the observed process go in through OfferBatch (or a whole series
// through Sample), selected samples come out, and Snapshot exposes the
// running estimate at any moment without disturbing the stream. An
// engine consumes exactly one stream; build a fresh one per run.
//
// All methods are safe for concurrent use. The intended split is one
// goroutine driving OfferBatch/Finish (ticks must arrive in order)
// while any number of observers call Snapshot.
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
}

// scratch pools the per-batch sample buffers of every engine. A batch's
// samples are recorded before OfferBatch returns, so a buffer is held
// only under the engine lock and the pool grows with the number of
// concurrent batches, not with the number of engines.
var scratch = sync.Pool{New: func() any { return new([]Sample) }}

// New builds an engine from a typed spec. The spec's technique must be
// one of the paper's techniques and every parameter must be accepted:
// unknown names wrap ErrUnknownTechnique (the error lists the known
// names) and rejected parameters surface as a *ParamError, so callers
// can branch on the failure mode.
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

// Spec returns a copy of the engine's spec.
func (e *Engine) Spec() Spec {
	out := Spec{Technique: e.spec.Technique, Params: make(map[string]string, len(e.spec.Params))}
	for k, v := range e.spec.Params {
		out.Params[k] = v
	}
	return out
}

// OfferBatch presents a batch of ticks in stream order and returns how
// many samples the batch finalized. It is the ingest hot path: the
// engine mutex is acquired once for the whole batch, the input-side
// estimator takes the batch in one TickBatch call, and the technique's
// kernel (core.Kernel.OfferBatch) jumps from kept tick to kept tick
// instead of visiting every one. Batches of any shape, one-tick batches
// included, produce exactly the same samples (asserted in
// TestOfferBatchMatchesOffer; internal/core checks each kernel against
// a per-tick oracle).
//
// The batch is atomic with respect to Finish and Snapshot — an
// observer sees either none or all of it. After Finish, OfferBatch
// takes nothing and fails with ErrFinished, so a caller racing a
// finish learns it from the same lock acquisition that would have
// taken the batch.
//
//samplelint:hotpath
func (e *Engine) OfferBatch(values []float64) (kept int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.finished {
		return 0, ErrFinished
	}
	buf := scratch.Get().(*[]Sample)
	*buf = e.offerBatch(values, (*buf)[:0])
	kept = len(*buf)
	scratch.Put(buf)
	return kept, nil
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

// Snapshot returns the engine's running summary: kept/seen counts, the
// mean of the kept values and its 95% confidence interval. It never
// finalizes anything and is safe to call concurrently while ticks flow;
// counters are monotonically non-decreasing across snapshots.
func (e *Engine) Snapshot() Summary {
	e.mu.Lock()
	defer e.mu.Unlock()
	var in *HurstPoint
	if e.estIn != nil {
		p := e.estIn.Estimate()
		in = &p
	}
	return e.summary(e.clock(), methodOf(e.estIn), in)
}

// summary is the engine's Summary at now. in is the input-side Hurst
// reading that the Hurst block pairs with the engine's kept side, under
// method: the engine's own for a standalone engine, the group's shared
// one for a group member, nil for no Hurst block. Callers hold e.mu.
func (e *Engine) summary(now time.Time, method estimate.Method, in *HurstPoint) Summary {
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
	if in != nil {
		s.Hurst = newHurstSummary(method, *in, e.estKept.Estimate())
	}
	return s
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
// whole-series and batch-by-batch use produce identical output. It
// must be the engine's last use: Sample offers every element and then
// finalizes, and on an engine already finished it fails with
// ErrFinished.
func (e *Engine) Sample(f []float64) ([]Sample, error) {
	if len(f) == 0 {
		return nil, fmt.Errorf("sampling: cannot sample an empty series")
	}
	e.mu.Lock()
	if e.finished {
		e.mu.Unlock()
		return nil, fmt.Errorf("sampling: engine: %w", ErrFinished)
	}
	out := e.offerBatch(f, make([]Sample, 0, 16))
	e.mu.Unlock()
	tail, err := e.Finish()
	if err != nil {
		return nil, err
	}
	return append(out, tail...), nil
}
