package core

import (
	"fmt"
	"math"
	"sort"
)

// Kernel is a sampling technique: the rule that decides which ticks of
// the traffic process f(t) to keep, run as a state machine over the
// ticks in stream order. Each selected observation is emitted as soon
// as it is decidable. Every technique in this package is one Kernel,
// built fresh per stream from its configuration's Kernel method or
// from a spec string (Lookup, Build).
//
// Implementations are single-goroutine state machines: they must not be
// offered ticks from multiple goroutines concurrently.
type Kernel interface {
	// Name identifies the technique (for reports and experiment tables).
	Name() string
	// OfferBatch presents a contiguous batch: values[i] is the tick at
	// index startIndex+i, and batches arrive in stream order. Every
	// sample the batch finalizes is appended to dst in the order it is
	// decided, and the extended slice is returned; dst is never
	// retained, so callers reuse one buffer across batches. A sample
	// may carry an index from an earlier batch when its decision was
	// deferred (stratified sampling emits a stratum's pick only once the
	// stratum is complete). The kernels jump skip-wise to the ticks they
	// keep instead of visiting every element, with one RNG draw per kept
	// sample (or per stratum). The output and the state are independent
	// of how the stream is split into batches: any partition, down to
	// one tick per call, emits the same samples and leaves the same
	// AppendState bytes as the whole series in one call.
	OfferBatch(startIndex int, values []float64, dst []Sample) []Sample
	// Finish declares the end of the stream and returns any samples that
	// could only be decided with the whole stream seen (e.g. simple random
	// sampling's draw without replacement), or an error when the stream
	// was unusable for the configured technique.
	Finish() ([]Sample, error)
	// AppendState appends the kernel's exact dynamic state, including
	// its RNG position, to dst and returns the extended slice. The blob
	// is kernel-internal: callers treat it as opaque bytes and frame,
	// version and checksum it themselves (the sampling package's engine
	// codec does).
	AppendState(dst []byte) ([]byte, error)
	// RestoreState overwrites the kernel's dynamic state from a blob
	// AppendState wrote on a kernel of the same configuration; the
	// restored kernel then emits the byte-identical sample sequence the
	// original would have continued with. A blob from another technique
	// or configuration, or one no stream of ticks can produce, is an
	// error.
	RestoreState(data []byte) error
}

// Interface compliance checks.
var (
	_ Kernel = (*streamSystematic)(nil)
	_ Kernel = (*streamStratified)(nil)
	_ Kernel = (*streamSimpleRandom)(nil)
	_ Kernel = (*streamBernoulli)(nil)
	_ Kernel = (*StreamBSS)(nil)
)

// Collect runs a kernel over a complete series and gathers its output —
// the paper's batch formulation f -> []Sample: the whole series is one
// OfferBatch, then Finish.
func Collect(k Kernel, f []float64) ([]Sample, error) {
	if len(f) == 0 {
		return nil, fmt.Errorf("core: cannot sample an empty series")
	}
	out := k.OfferBatch(0, f, nil)
	tail, err := k.Finish()
	if err != nil {
		return nil, err
	}
	return append(out, tail...), nil
}

// IntervalForRate maps a sampling rate r in (0,1] to the base interval
// 1/r rounded to the nearest integer — halves round up (away from
// zero), so r = 0.4 gives interval 3, not 2 — and never below 1. This
// is the single conversion rule shared by the technique table, the
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

// Name implements Kernel.
func (p *streamSystematic) Name() string { return "systematic" }

// OfferBatch implements Kernel: the selected positions are known
// in advance, so the batch form steps straight from kept tick to kept
// tick — interval-length jumps — instead of counting every tick.
//
//samplelint:hotpath
func (p *streamSystematic) OfferBatch(startIndex int, values []float64, dst []Sample) []Sample {
	// p.next never trails p.tick: a batch only advances it past the
	// ticks it has seen, so the batch-relative offset is non-negative.
	off := p.next - p.tick
	for off < len(values) {
		dst = append(dst, Sample{Index: startIndex + off, Value: values[off]})
		off += p.interval
	}
	p.next = p.tick + off
	p.tick += len(values)
	return dst
}

// Finish implements Kernel.
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

// Name implements Kernel.
func (p *streamStratified) Name() string { return "stratified" }

// OfferBatch implements Kernel: one draw when a stratum opens — the
// same draw sequence however the stream is batched — then a direct index
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

// Finish implements Kernel.
func (p *streamStratified) Finish() ([]Sample, error) { return nil, nil }

// streamSimpleRandom is the uniform draw without replacement, in one of
// two regimes:
//
// Fixed size (n > 0) runs a Vitter-style reservoir with skip counts
// (Algorithm L): the first n ticks fill the reservoir, then a single
// geometric-tailed draw yields how many ticks to pass over before the
// next replacement, so the batch form jumps straight to it. The
// reservoir is two columns, kept index and kept value (16 bytes a
// slot: a reservoir never holds a BSS-qualified sample), grown by
// append as it fills, since n is unbounded user input; Finish builds
// the []Sample.
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

	// Fixed-n reservoir state: slot k holds tick resIdx[k] of value
	// resVal[k].
	resIdx []int
	resVal []float64
	w      float64 // Algorithm L acceptance threshold
	skip   int     // ticks to pass over before the next replacement
	seen   int

	// Rate-mode buffer state. base records the index of the first
	// offered tick so Finish can reconstruct sample indices.
	buf  []float64
	base int
}

// Name implements Kernel.
func (p *streamSimpleRandom) Name() string { return "simple-random" }

// offerReservoir advances the fixed-n reservoir by one tick.
func (p *streamSimpleRandom) offerReservoir(index int, value float64) {
	p.seen++
	if len(p.resIdx) < p.n {
		p.resIdx = append(p.resIdx, index)
		p.resVal = append(p.resVal, value)
		if len(p.resIdx) == p.n {
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
	k := p.rng.IntN(p.n)
	p.resIdx[k], p.resVal[k] = index, value
	p.w *= math.Exp(math.Log(1-p.rng.Float64()) / float64(p.n))
	p.skip = reservoirSkip(p.rng, p.w)
}

// OfferBatch implements Kernel. Fixed-n mode jumps from
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
	for i < n && len(p.resIdx) < p.n {
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
	p.buf = append(p.buf, values...)
}

// Finish implements Kernel. Fixed-n mode returns the reservoir in
// index order and leaves its slots in that order, which is what a
// checkpoint of the finished stream records; rate mode draws
// n = max(1, N/IntervalForRate(rate)) distinct positions from the N
// buffered ticks with Floyd's algorithm and returns them in index
// order.
func (p *streamSimpleRandom) Finish() ([]Sample, error) {
	if p.seen == 0 {
		return nil, fmt.Errorf("core: cannot sample an empty series")
	}
	if p.n > 0 {
		if p.n > p.seen {
			return nil, fmt.Errorf("core: sample size %d exceeds population %d", p.n, p.seen)
		}
		out := make([]Sample, len(p.resIdx))
		for k, index := range p.resIdx {
			out[k] = Sample{Index: index, Value: p.resVal[k]}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
		for k, s := range out {
			p.resIdx[k], p.resVal[k] = s.Index, s.Value
		}
		return out, nil
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
// construction, so the draw sequence is the same however the stream is
// batched.
func newStreamBernoulli(rate float64, rng *Rand) *streamBernoulli {
	p := &streamBernoulli{rate: rate, rng: rng, logq: math.Log1p(-rate)}
	p.skip = geometricSkip(rng, p.logq)
	return p
}

// Name implements Kernel.
func (p *streamBernoulli) Name() string { return "bernoulli" }

// OfferBatch implements Kernel: hop from kept tick to kept tick,
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

// Finish implements Kernel.
func (p *streamBernoulli) Finish() ([]Sample, error) { return nil, nil }
