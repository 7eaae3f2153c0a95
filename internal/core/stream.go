package core

import (
	"fmt"
	"math"
	"sort"
)

// StreamSampler is the incremental form of a sampling technique: ticks of
// the traffic process are offered one at a time, in order, and the
// sampler emits each selected observation as soon as it is decidable.
// This is the engine every consumer runs on; the batch Sampler.Sample
// methods are thin adapters over it (see Collect). Every built-in
// technique also implements BatchStreamer, the skip-based batch kernel
// the public sampling.Engine runs (BatchOf adapts any other sampler).
//
// Implementations are single-goroutine state machines: they must not be
// offered ticks from multiple goroutines concurrently.
type StreamSampler interface {
	// Name identifies the technique (for reports and experiment tables).
	Name() string
	// Offer presents the next tick. index is recorded in emitted samples
	// and must increase by one per call starting from the first offered
	// tick. It returns the sample finalized by this tick, if any — which
	// may carry an earlier index when the decision was deferred (e.g.
	// stratified sampling emits a stratum's pick only once the stratum is
	// complete).
	Offer(index int, value float64) (Sample, bool)
	// Finish declares the end of the stream and returns any samples that
	// could only be decided with the whole stream seen (e.g. simple random
	// sampling's draw without replacement), or an error when the stream
	// was unusable for the configured technique.
	Finish() ([]Sample, error)
}

// Streamer is a sampler configuration that can produce a fresh streaming
// engine. Every batch sampler in this package implements it; Stream
// validates the configuration.
type Streamer interface {
	Name() string
	Stream() (StreamSampler, error)
}

// Collect runs a streaming sampler over a complete series and gathers its
// output — the bridge from the streaming engine back to the paper's batch
// formulation f -> []Sample. It deliberately drives the per-tick Offer
// form: Collect is the reference run the batch fast paths are tested
// against.
func Collect(s StreamSampler, f []float64) ([]Sample, error) {
	if len(f) == 0 {
		return nil, fmt.Errorf("core: cannot sample an empty series")
	}
	out := make([]Sample, 0, 16)
	for i, v := range f {
		if smp, ok := s.Offer(i, v); ok {
			out = append(out, smp)
		}
	}
	tail, err := s.Finish()
	if err != nil {
		return nil, err
	}
	return append(out, tail...), nil
}

// sampleViaStream derives batch sampling from the streaming engine.
func sampleViaStream(c Streamer, f []float64) ([]Sample, error) {
	s, err := c.Stream()
	if err != nil {
		return nil, err
	}
	return Collect(s, f)
}

// IntervalForRate maps a sampling rate r in (0,1] to the base interval
// 1/r rounded to the nearest integer — halves round up (away from
// zero), so r = 0.4 gives interval 3, not 2 — and never below 1. This
// is the single conversion rule shared by the spec registry, the
// rate-sized simple random draw and the CLIs; note that for
// non-reciprocal rates the achieved rate 1/interval differs from r by
// up to the rounding error (r = 0.7 keeps every tick, r = 0.6 keeps
// every second one).
func IntervalForRate(rate float64) (int, error) {
	if !(rate > 0) || rate > 1 {
		return 0, fmt.Errorf("core: sampling rate %g outside (0,1]", rate)
	}
	interval := int(1/rate + 0.5)
	if interval < 1 {
		interval = 1
	}
	return interval, nil
}

// streamSystematic keeps every interval-th tick starting at offset.
type streamSystematic struct {
	interval int
	next     int // tick count at which the next base sample falls
	tick     int
}

// Name implements StreamSampler.
func (p *streamSystematic) Name() string { return "systematic" }

// Offer implements StreamSampler.
func (p *streamSystematic) Offer(index int, value float64) (Sample, bool) {
	t := p.tick
	p.tick++
	if t != p.next {
		return Sample{}, false
	}
	p.next += p.interval
	return Sample{Index: index, Value: value}, true
}

// OfferBatch implements BatchStreamer: the selected positions are known
// in advance, so the batch form steps straight from kept tick to kept
// tick — interval-length jumps — instead of counting every tick.
//
//samplelint:hotpath
func (p *streamSystematic) OfferBatch(startIndex int, values []float64, dst []Sample) []Sample {
	// p.next never trails p.tick: Offer only advances it past the
	// current tick, so the batch-relative offset is non-negative.
	off := p.next - p.tick
	for off < len(values) {
		dst = append(dst, Sample{Index: startIndex + off, Value: values[off]})
		off += p.interval
	}
	p.next = p.tick + off
	p.tick += len(values)
	return dst
}

// Finish implements StreamSampler.
func (p *streamSystematic) Finish() ([]Sample, error) { return nil, nil }

// streamStratified draws one position per stratum. The position is drawn
// when the stratum opens and the pick is emitted when the stratum
// completes, so an incomplete trailing stratum contributes nothing — the
// same rule as the batch formulation.
type streamStratified struct {
	interval int
	rng      *Rand
	tick     int
	pick     int // position within the current stratum
	pending  Sample
}

// Name implements StreamSampler.
func (p *streamStratified) Name() string { return "stratified" }

// Offer implements StreamSampler.
func (p *streamStratified) Offer(index int, value float64) (Sample, bool) {
	pos := p.tick % p.interval
	p.tick++
	if pos == 0 {
		p.pick = p.rng.IntN(p.interval)
	}
	if pos == p.pick {
		p.pending = Sample{Index: index, Value: value}
	}
	if pos == p.interval-1 {
		return p.pending, true
	}
	return Sample{}, false
}

// OfferBatch implements BatchStreamer: one draw when a stratum opens —
// exactly the draw sequence of the per-tick form — then a direct index
// computation for the pick and a jump to the stratum boundary, so the
// per-stratum work is O(1) regardless of the interval.
//
//samplelint:hotpath
func (p *streamStratified) OfferBatch(startIndex int, values []float64, dst []Sample) []Sample {
	i, n := 0, len(values)
	for i < n {
		pos := p.tick % p.interval
		if pos == 0 {
			p.pick = p.rng.IntN(p.interval)
		}
		// The batch covers this stratum from pos up to pos+step.
		step := p.interval - pos
		if left := n - i; left < step {
			step = left
		}
		if rel := p.pick - pos; rel >= 0 && rel < step {
			p.pending = Sample{Index: startIndex + i + rel, Value: values[i+rel]}
		}
		p.tick += step
		i += step
		if pos+step == p.interval {
			dst = append(dst, p.pending)
		}
	}
	return dst
}

// Finish implements StreamSampler.
func (p *streamStratified) Finish() ([]Sample, error) { return nil, nil }

// streamSimpleRandom is the uniform draw without replacement, in one of
// two regimes:
//
// Fixed size (n > 0) runs a Vitter-style reservoir with skip counts
// (Algorithm L): the first n ticks fill the reservoir, then a single
// geometric-tailed draw yields how many ticks to pass over before the
// next replacement, so the per-tick work is a counter decrement and
// memory is O(n) instead of the previous whole-stream buffer.
//
// Population-relative size (rate, when n == 0) cannot fix the sample
// size until the stream ends, so it buffers the raw values — O(stream
// length), the one inherently offline regime — and draws the selected
// indices at Finish with Floyd's sampling algorithm: O(n) draws where
// the previous partial Fisher-Yates shuffled an O(stream) index array.
type streamSimpleRandom struct {
	n    int     // fixed sample size; 0 defers to rate
	rate float64 // population-relative size when n == 0
	rng  *Rand

	// Fixed-n reservoir state.
	res  []Sample
	w    float64 // Algorithm L acceptance threshold
	skip int     // ticks to pass over before the next replacement
	seen int

	// Rate-mode buffer state. base records the index of the first
	// offered tick so Finish can reconstruct sample indices.
	buf  []float64
	base int
}

// Name implements StreamSampler.
func (p *streamSimpleRandom) Name() string { return "simple-random" }

// Offer implements StreamSampler.
func (p *streamSimpleRandom) Offer(index int, value float64) (Sample, bool) {
	if p.n == 0 {
		if p.seen == 0 {
			p.base = index
		}
		p.seen++
		p.buf = append(p.buf, value)
		return Sample{}, false
	}
	p.offerReservoir(index, value)
	return Sample{}, false
}

// offerReservoir advances the fixed-n reservoir by one tick.
func (p *streamSimpleRandom) offerReservoir(index int, value float64) {
	p.seen++
	if len(p.res) < p.n {
		p.res = append(p.res, Sample{Index: index, Value: value})
		if len(p.res) == p.n {
			p.w = math.Exp(math.Log(1-p.rng.Float64()) / float64(p.n))
			p.skip = reservoirSkip(p.rng, p.w)
		}
		return
	}
	if p.skip > 0 {
		p.skip--
		return
	}
	p.replace(index, value)
}

// replace admits the current tick into a uniformly chosen reservoir
// slot and draws the skip to the next replacement, tightening the
// Algorithm L threshold on the way.
func (p *streamSimpleRandom) replace(index int, value float64) {
	p.res[p.rng.IntN(p.n)] = Sample{Index: index, Value: value}
	p.w *= math.Exp(math.Log(1-p.rng.Float64()) / float64(p.n))
	p.skip = reservoirSkip(p.rng, p.w)
}

// OfferBatch implements BatchStreamer. Fixed-n mode jumps from
// replacement to replacement; rate mode reduces to one bulk append of
// the raw values (the whole batch is candidate state, nothing is
// decidable before Finish). Neither regime emits mid-stream, so dst is
// returned untouched.
//
//samplelint:hotpath
func (p *streamSimpleRandom) OfferBatch(startIndex int, values []float64, dst []Sample) []Sample {
	if p.n == 0 {
		p.bufferBatch(startIndex, values)
		return dst
	}
	i, n := 0, len(values)
	// Fill phase: at most p.n ticks ever take this path.
	for i < n && len(p.res) < p.n {
		p.offerReservoir(startIndex+i, values[i])
		i++
	}
	for i < n {
		j := i + p.skip
		if j >= n {
			p.skip = j - n
			p.seen += n - i
			return dst
		}
		p.seen += j - i + 1
		p.replace(startIndex+j, values[j])
		i = j + 1
	}
	return dst
}

// bufferBatch grows the rate-mode candidate buffer by a whole batch.
// Deliberately outside the //samplelint:hotpath annotation: buffering
// the stream is this regime's documented O(stream length) state, so
// the append may (and must) allocate as the buffer grows.
func (p *streamSimpleRandom) bufferBatch(startIndex int, values []float64) {
	if p.seen == 0 {
		p.base = startIndex
	}
	p.seen += len(values)
	if len(values) == 1 {
		// Engine.Offer's one-tick batch: a plain append skips the
		// memmove call the slice form pays.
		p.buf = append(p.buf, values[0])
		return
	}
	p.buf = append(p.buf, values...)
}

// Finish implements StreamSampler. Fixed-n mode returns the reservoir
// in index order; rate mode draws n = max(1, N/IntervalForRate(rate))
// distinct positions from the N buffered ticks with Floyd's algorithm
// and returns them in index order.
func (p *streamSimpleRandom) Finish() ([]Sample, error) {
	if p.seen == 0 {
		return nil, fmt.Errorf("core: cannot sample an empty series")
	}
	if p.n > 0 {
		if p.n > p.seen {
			return nil, fmt.Errorf("core: sample size %d exceeds population %d", p.n, p.seen)
		}
		sort.Slice(p.res, func(i, j int) bool { return p.res[i].Index < p.res[j].Index })
		return p.res, nil
	}
	interval, err := IntervalForRate(p.rate)
	if err != nil {
		return nil, err
	}
	n := len(p.buf) / interval
	if n < 1 {
		n = 1
	}
	out := make([]Sample, 0, n)
	for _, k := range floydSample(p.rng, n, len(p.buf)) {
		out = append(out, Sample{Index: p.base + k, Value: p.buf[k]})
	}
	return out, nil
}

// floydSample draws n distinct positions uniformly from [0, pop) with
// Robert Floyd's algorithm — n draws, no shuffle of the population —
// and returns them sorted. Requires n <= pop.
func floydSample(rng *Rand, n, pop int) []int {
	chosen := make(map[int]struct{}, n)
	for j := pop - n; j < pop; j++ {
		t := rng.IntN(j + 1)
		if _, dup := chosen[t]; dup {
			chosen[j] = struct{}{}
		} else {
			chosen[t] = struct{}{}
		}
	}
	out := make([]int, 0, n)
	for k := range chosen {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// streamBernoulli keeps each tick independently with probability rate.
// Instead of one uniform draw per tick, it draws the geometric
// inter-sample gap (Eq. 13) once per kept sample and counts the skipped
// ticks down — the deterministic-arrival regime probabilistic sampling
// collapses to once the gap law is sampled directly.
type streamBernoulli struct {
	rate float64
	rng  *Rand
	logq float64 // log(1-rate), the geometric inverse-transform denominator
	skip int     // ticks to pass over before the next kept one
}

// newStreamBernoulli seeds the gap state: the first skip is drawn at
// construction so Offer and OfferBatch share one well-defined draw
// sequence.
func newStreamBernoulli(rate float64, rng *Rand) *streamBernoulli {
	p := &streamBernoulli{rate: rate, rng: rng, logq: math.Log1p(-rate)}
	p.skip = geometricSkip(rng, p.logq)
	return p
}

// Name implements StreamSampler.
func (p *streamBernoulli) Name() string { return "bernoulli" }

// Offer implements StreamSampler.
func (p *streamBernoulli) Offer(index int, value float64) (Sample, bool) {
	if p.skip > 0 {
		p.skip--
		return Sample{}, false
	}
	p.skip = geometricSkip(p.rng, p.logq)
	return Sample{Index: index, Value: value}, true
}

// OfferBatch implements BatchStreamer: hop from kept tick to kept tick,
// one geometric draw each, carrying the remainder of the final skip
// into the next batch.
//
//samplelint:hotpath
func (p *streamBernoulli) OfferBatch(startIndex int, values []float64, dst []Sample) []Sample {
	i, n := 0, len(values)
	for {
		j := i + p.skip
		if j >= n {
			p.skip = j - n
			return dst
		}
		dst = append(dst, Sample{Index: startIndex + j, Value: values[j]})
		p.skip = geometricSkip(p.rng, p.logq)
		i = j + 1
	}
}

// Finish implements StreamSampler.
func (p *streamBernoulli) Finish() ([]Sample, error) { return nil, nil }

// Interface compliance checks.
var (
	_ BatchStreamer = (*streamSystematic)(nil)
	_ BatchStreamer = (*streamStratified)(nil)
	_ BatchStreamer = (*streamSimpleRandom)(nil)
	_ BatchStreamer = (*streamBernoulli)(nil)
)
