package lrd

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/stats"
)

// maxStreamLevels bounds the dyadic ladders of the streaming estimators.
// 2^48 ticks is far beyond any stream lifetime. A ladder holds one
// record per level the stream has reached — bits.Len64(n) of them after
// n ticks, capped here — so it costs O(log n) memory and amortized O(1)
// work per tick, and allocates only when a stream first reaches a
// power-of-two length.
const maxStreamLevels = 48

// ladderLevels is the number of levels a ladder holds after n ticks.
func ladderLevels(n int64) int {
	return min(bits.Len64(uint64(n)), maxStreamLevels)
}

// reach returns levels extended to the ladderLevels(n) levels n ticks
// fill, each new level zero, as a never-touched level is. It is the
// ladders' one allocation site: Tick calls it when a stream first
// reaches a power-of-two length and TickBatch once per batch, so the
// per-tick loops never grow the slice and a level pointer stays valid
// across a batch.
func reach[L any](levels []L, n int64) []L {
	if want := ladderLevels(n); want > len(levels) {
		next := make([]L, want)
		copy(next, levels)
		return next
	}
	return levels
}

// halfBlock is one rung of a dyadic cascade: the sum over an open
// half-block of 2^j ticks, waiting for its sibling.
type halfBlock struct {
	sum float64
	has bool
}

// StreamAggVar is the streaming form of the aggregated-variance
// estimator: a dyadic ladder of block sums where level j accumulates
// the running variance of the means of consecutive 2^j-tick blocks.
// Tick is amortized O(1) (worst case O(log n) on power-of-two
// boundaries) and allocates only when the stream first reaches a new
// level; Estimate regresses log Var(X^(m)) on log m at any moment,
// exactly the batch HurstAggVar math over the dyadic levels the ladder
// maintains.
//
// The zero value is ready to use. Not safe for concurrent use; wrap it
// the way sampling.Engine wraps its sampler.
type StreamAggVar struct {
	// MinM is the smallest aggregation level entering the regression
	// (rounded into the dyadic grid); zero means 1.
	MinM int

	n int64
	// levels[j] is the rung of 2^j-tick blocks; level 0 sees every raw
	// tick. It holds ladderLevels(n) rungs.
	levels []aggLevel
}

// aggLevel is one rung of the aggregated-variance ladder: the open
// half-block waiting for its sibling, and the running moments of the
// means of completed 2^j-tick blocks.
type aggLevel struct {
	half halfBlock
	acc  stats.Accumulator
}

// Tick folds the next observation into every aggregation level it
// completes. It allocates only when the stream reaches a new level.
//
//samplelint:hotpath
func (s *StreamAggVar) Tick(v float64) {
	s.n++
	if s.n&(s.n-1) == 0 {
		s.levels = reach(s.levels, s.n)
	}
	l0 := &s.levels[0]
	l0.acc.Add(v)
	h := &l0.half
	if !h.has {
		h.sum, h.has = v, true
		return
	}
	h.has = false
	s.carry(1, v+h.sum)
}

// foldChunk is the most ticks TickBatch cascades at a time: the level-1
// block sums of one chunk fit a stack buffer of half its length, which
// every higher level then reuses in place.
const foldChunk = 1024

// TickBatch folds a batch of observations level by level: level 0 takes
// the raw ticks, level j the batch's completed 2^j-tick block sums, and
// each level merges its run once (stats.Run) instead of taking one
// Welford division per block. The block sums come from the pairwise adds
// Tick's carry makes, in its operand order, so the ladder's shape, block
// counts, open and stale half-block sums, Min and Max are bit for bit
// where one Tick per value would leave them, and a one-tick batch is
// Tick. Mean, M2 and Sum agree with Tick's within stats.FoldTolerance;
// the same batches always give the same bytes. It reserves every level
// the batch reaches up front, so it allocates at most once.
//
//samplelint:hotpath
func (s *StreamAggVar) TickBatch(values []float64) {
	if len(values) < 2 {
		// A one-tick batch is Tick, and going there spares it the
		// fold's ~8 KB of zeroed run records and chunk buffer.
		for _, v := range values {
			s.Tick(v)
		}
		return
	}
	before := s.n
	s.n += int64(len(values))
	s.levels = reach(s.levels, s.n)
	// Blocks complete within this batch on levels below the highest bit
	// in which the old and new tick counts differ.
	levels := s.levels[:min(bits.Len64(uint64(before^s.n)), len(s.levels))]
	var runs [maxStreamLevels]stats.Run
	for j := range levels {
		runs[j] = levels[j].acc.Run(int(s.n>>j - before>>j))
	}
	var buf [foldChunk / 2]float64
	for len(values) > 0 {
		chunk := values[:min(len(values), foldChunk)]
		values = values[len(chunk):]
		run := s.foldLevel(0, &runs[0], chunk, buf[:])
		for j := 1; len(run) > 0; j++ {
			if j == maxStreamLevels-1 {
				// The top level closes no half-blocks, as in carry.
				runs[j].FoldPairs(run, 1/float64(int64(1)<<j), run)
				break
			}
			run = s.foldLevel(j, &runs[j], run, run)
		}
	}
	for j := range levels {
		levels[j].acc.Merge(&runs[j])
	}
}

// foldLevel folds level j's run of block sums into r, as the block
// means Tick adds, and returns the next level's block sums, written to
// out (which may alias run). Each adds the later block to the earlier
// one, as carry does: an open half-block pairs with the run's first
// block, and the half-block ends open on an unpaired last block, or
// closed on the stale sum of the last pair's first block.
//
//samplelint:hotpath
func (s *StreamAggVar) foldLevel(j int, r *stats.Run, run, out []float64) []float64 {
	m := 1 / float64(int64(1)<<j)
	h := &s.levels[j].half
	k := 0
	if h.has {
		r.FoldPairs(run[:1], m, nil)
		out[0] = run[0] + h.sum
		h.has = false
		run = run[1:]
		k = 1
	}
	// Read the closing sums before the fold overwrites an aliased run.
	p := len(run) / 2
	if p > 0 {
		h.sum = run[2*p-2]
	}
	if len(run)&1 == 1 {
		h.sum, h.has = run[len(run)-1], true
	}
	r.FoldPairs(run, m, out[k:k+p])
	return out[:k+p]
}

// carry records a completed block of 2^j ticks summing to sum at level
// j and percolates it up the ladder for Tick: an open half-block waits
// for its sibling, a closed pair becomes a block of the next level.
//
//samplelint:hotpath
func (s *StreamAggVar) carry(j int, sum float64) {
	levels := s.levels
	for {
		l := &levels[j]
		l.acc.Add(sum / float64(int64(1)<<j))
		if j == maxStreamLevels-1 {
			return
		}
		h := &l.half
		if !h.has {
			h.sum, h.has = sum, true
			return
		}
		sum += h.sum
		h.has = false
		j++
	}
}

// N returns the number of ticks consumed.
func (s *StreamAggVar) N() int64 { return s.n }

// Moments returns the running moments of every tick consumed: level 0
// of the ladder, which sees each raw tick exactly once.
func (s *StreamAggVar) Moments() stats.AccumulatorState {
	if len(s.levels) == 0 {
		return stats.AccumulatorState{}
	}
	return s.levels[0].acc.State()
}

// Estimate fits the aggregated-variance regression over the levels the
// stream has filled so far: dyadic m >= MinM with at least 16 completed
// blocks — the same cutoff as the batch default maxM = n/16, so on a
// complete series Estimate and HurstAggVar(x, MinM, 0) agree exactly.
// It needs at least three usable levels (n >= 64 or so).
func (s *StreamAggVar) Estimate() (HurstEstimate, error) {
	minM := s.MinM
	if minM < 1 {
		minM = 1
	}
	return s.estimateRange(minM, 0, 16)
}

// estimateRange is the shared regression core: levels with dyadic
// m in [minM, maxM] (maxM <= 0 means unbounded), at least minBlocks
// completed blocks and positive variance enter the log-log fit. The
// batch HurstAggVar drives a ladder over the whole series and calls
// this with its explicit [minM, maxM] window.
func (s *StreamAggVar) estimateRange(minM, maxM, minBlocks int) (HurstEstimate, error) {
	if minBlocks < 8 {
		minBlocks = 8
	}
	var lm, lv []float64
	for j, m := 0, int64(1); j < len(s.levels); j, m = j+1, m*2 {
		if m < int64(minM) {
			continue
		}
		if maxM > 0 && m > int64(maxM) {
			break
		}
		acc := &s.levels[j].acc
		if acc.N() < minBlocks {
			break
		}
		v := acc.Variance()
		// Nonpositive variances have no logarithm; infinite ones (value
		// overflow on pathological input) would poison the regression.
		if v <= 0 || math.IsInf(v, 0) {
			continue
		}
		lm = append(lm, math.Log(float64(m)))
		lv = append(lv, math.Log(v))
	}
	if len(lm) < 3 {
		return HurstEstimate{}, fmt.Errorf("lrd: aggregated variance produced only %d usable levels", len(lm))
	}
	fit, err := stats.FitLine(lm, lv)
	if err != nil {
		return HurstEstimate{}, fmt.Errorf("lrd: aggregated variance: %w", err)
	}
	h := 1 + fit.Slope/2
	return HurstEstimate{H: h, Beta: BetaFromH(h), Method: "aggvar", Fit: fit}, nil
}

// StreamWavelet is the streaming Abry-Veitch estimator: a pairwise Haar
// cascade where each tick percolates up a ladder of approximation
// coefficients, emitting one detail coefficient per completed pair. The
// per-octave detail energies feed the same debiased logscale-diagram
// regression as the batch HurstWavelet; the wavelet is Haar (one
// vanishing moment), which suffices for stationary fGn-like input.
// Tick is amortized O(1) and allocates only when the stream reaches a
// new octave.
//
// The zero value is ready to use. Not safe for concurrent use.
type StreamWavelet struct {
	// JMin is the first octave entering the regression (1-based);
	// zero means 3, the batch default.
	JMin int

	n int64
	// levels[j] is the slot of octave j+1 (slot 0 pairs raw ticks — the
	// finest octave). It holds ladderLevels(n) slots.
	levels []waveletLevel
}

// waveletLevel is one slot of the Haar cascade: the approximation
// waiting for its sibling, and the energy and count of the detail
// coefficients the slot has emitted.
type waveletLevel struct {
	half   halfBlock
	energy float64
	count  int64
}

// Tick feeds the cascade one observation. It allocates only when the
// stream reaches a new octave.
//
//samplelint:hotpath
func (s *StreamWavelet) Tick(v float64) {
	s.n++
	if s.n&(s.n-1) == 0 {
		s.levels = reach(s.levels, s.n)
	}
	haarPush(s.levels, v)
}

// TickBatch feeds the cascade a batch of observations, exactly as one
// Tick per value would. It reserves every slot the batch reaches up
// front, so it allocates at most once.
//
//samplelint:hotpath
func (s *StreamWavelet) TickBatch(values []float64) {
	s.levels = reach(s.levels, s.n+int64(len(values)))
	levels := s.levels
	for _, v := range values {
		haarPush(levels, v)
	}
	s.n += int64(len(values))
}

// haarPush percolates one observation up the cascade: an empty slot
// keeps the approximation, a full one pairs with it into a detail
// coefficient and passes the next approximation up. Tick n stops at
// slot bits.TrailingZeros64(n), so slots reserved ahead of the stream
// stay untouched; past the top slot the approximation is dropped.
//
//samplelint:hotpath
func haarPush(levels []waveletLevel, a float64) {
	for j := range levels {
		l := &levels[j]
		if !l.half.has {
			l.half.sum, l.half.has = a, true
			return
		}
		d := (l.half.sum - a) / math.Sqrt2
		l.energy += d * d
		l.count++
		a = (l.half.sum + a) / math.Sqrt2
		l.half.has = false
	}
}

// N returns the number of ticks consumed.
func (s *StreamWavelet) N() int64 { return s.n }

// Estimate fits the logscale diagram over every octave with at least 8
// detail coefficients so far — the same regression, bias correction and
// weighting as the batch HurstWavelet.
func (s *StreamWavelet) Estimate() (HurstEstimate, error) {
	jMin := s.JMin
	if jMin < 1 {
		jMin = 3
	}
	var mu []float64
	var counts []int
	for _, l := range s.levels {
		if l.count == 0 {
			break
		}
		mu = append(mu, l.energy/float64(l.count))
		counts = append(counts, int(l.count))
	}
	return fitLogscale(mu, counts, jMin, len(mu))
}

// StreamRS is the windowed rescaled-range fallback: a fixed ring of the
// most recent ticks, re-analyzed on demand with the batch R/S
// estimator. Tick is O(1) and allocation-free; Estimate costs
// O(window log window) and is meant for the observation path, not the
// ingest path. Unlike the ladder estimators it forgets history beyond
// the window — the robust, assumption-light cross-check.
type StreamRS struct {
	window []float64
	n      int64
	pos    int
}

// rsScratch lends Estimate the buffer it unrolls a full ring into, so
// a stream keeps only its window resident between snapshots.
var rsScratch sync.Pool // *[]float64

// NewStreamRS builds a windowed R/S estimator over the last window
// ticks; window is clamped to at least 256 (the batch R/S regression
// needs >= 3 block sizes, so 128 ticks alone cannot produce a fit) and
// defaults to 4096 when <= 0.
func NewStreamRS(window int) *StreamRS {
	if window <= 0 {
		window = 4096
	}
	if window < 256 {
		window = 256
	}
	return &StreamRS{window: make([]float64, window)}
}

// Tick records the observation in the ring. It never allocates.
//
//samplelint:hotpath
func (s *StreamRS) Tick(v float64) {
	s.window[s.pos] = v
	s.pos++
	if s.pos == len(s.window) {
		s.pos = 0
	}
	s.n++
}

// TickBatch records a batch of observations in the ring, exactly as
// one Tick per value would. It never allocates.
//
//samplelint:hotpath
func (s *StreamRS) TickBatch(values []float64) {
	s.n += int64(len(values))
	for len(values) > 0 {
		k := copy(s.window[s.pos:], values)
		values = values[k:]
		if s.pos += k; s.pos == len(s.window) {
			s.pos = 0
		}
	}
}

// N returns the number of ticks consumed.
func (s *StreamRS) N() int64 { return s.n }

// Estimate runs the batch R/S regression over the window contents in
// arrival order (the full ring once filled, the prefix before that).
func (s *StreamRS) Estimate() (HurstEstimate, error) {
	if s.n < int64(len(s.window)) {
		return HurstRS(s.window[:s.n])
	}
	buf, _ := rsScratch.Get().(*[]float64)
	if buf == nil || cap(*buf) < len(s.window) {
		buf = new([]float64)
		*buf = make([]float64, len(s.window))
	}
	scratch := (*buf)[:len(s.window)]
	k := copy(scratch, s.window[s.pos:])
	copy(scratch[k:], s.window[:s.pos])
	e, err := HurstRS(scratch)
	rsScratch.Put(buf)
	return e, err
}
