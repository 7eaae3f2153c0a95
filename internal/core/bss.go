package core

import (
	"fmt"

	"repro/internal/stats"
)

// BSS is Biased Systematic Sampling (the paper's Section V-C): systematic
// sampling with interval C, except that whenever a base sample exceeds the
// threshold a_th, L extra probes are taken evenly inside the current
// interval (spacing C/(L+1), strictly between this base sample and the
// next) and only the probes exceeding a_th — the "qualified" samples — are
// kept. Because bursts above a_th are heavy-tailed (Section V-B), a sample
// above the threshold predicts more large values right after it, so the
// extra probes recover exactly the mass ordinary sampling misses.
//
// The threshold is either static (Threshold > 0) or adaptive, the paper's
// online rule: a_th = Epsilon * (running mean of every kept sample so
// far), seeded from the first PreSamples base samples and updated only at
// base samples — never while extra probes of the current interval are
// outstanding.
type BSS struct {
	Interval   int     // base sampling interval C >= 1
	Offset     int     // base offset in [0, Interval)
	L          int     // extra probes per triggered interval, >= 0 (0 degenerates to systematic)
	Epsilon    float64 // adaptive threshold multiplier (used when Threshold == 0)
	Threshold  float64 // static a_th; > 0 disables the adaptive rule
	PreSamples int     // warm-up base samples for the adaptive rule (default 10)

	// Placement selects where the L extra probes go; see Placement.
	Placement Placement
}

// Placement is the extra-probe layout within a triggered interval, an
// ablation axis for the design choice the paper leaves implicit.
type Placement int

const (
	// PlacementSpread (the default, the paper's description) spaces the
	// L probes evenly through the interval at C/(L+1).
	PlacementSpread Placement = iota
	// PlacementChase takes the L probes at consecutive ticks right after
	// the trigger — "burst chasing". It qualifies more probes (the burst
	// persistence of Eq. 20 is strongest immediately after a trigger) but
	// over-weights the head of each burst, biasing the estimate upward.
	PlacementChase
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	if p == PlacementChase {
		return "chase"
	}
	return "spread"
}

// NewBSS validates the configuration.
func NewBSS(interval, l int, epsilon float64) (BSS, error) {
	b := BSS{Interval: interval, L: l, Epsilon: epsilon}
	if err := b.validate(); err != nil {
		return BSS{}, err
	}
	return b, nil
}

// NewBSSStatic builds a BSS with a fixed threshold a_th.
func NewBSSStatic(interval, l int, threshold float64) (BSS, error) {
	b := BSS{Interval: interval, L: l, Threshold: threshold}
	if err := b.validate(); err != nil {
		return BSS{}, err
	}
	return b, nil
}

func (b BSS) validate() error {
	switch {
	case b.Interval < 1:
		return fmt.Errorf("core: BSS interval %d must be >= 1", b.Interval)
	case b.Offset < 0 || b.Offset >= b.Interval:
		return fmt.Errorf("core: BSS offset %d outside [0, %d)", b.Offset, b.Interval)
	case b.L < 0:
		return fmt.Errorf("core: BSS extra-sample count L=%d must be >= 0", b.L)
	case b.Threshold < 0:
		return fmt.Errorf("core: BSS threshold %g must be >= 0", b.Threshold)
	case b.Threshold == 0 && !(b.Epsilon > 0):
		return fmt.Errorf("core: adaptive BSS needs Epsilon > 0 (got %g)", b.Epsilon)
	case b.PreSamples < 0:
		return fmt.Errorf("core: BSS pre-sample count %d must be >= 0", b.PreSamples)
	case b.Placement != PlacementSpread && b.Placement != PlacementChase:
		return fmt.Errorf("core: unknown BSS placement %d", b.Placement)
	}
	return nil
}

// probeOffsets appends the extra-probe tick numbers for a trigger at base
// tick i, honoring the placement policy and skipping collisions. The
// stream has no end, so out-of-range probes simply never arrive.
func (b BSS) probeOffsets(i int, dst []int) []int {
	prev := i
	for j := 1; j <= b.L; j++ {
		var idx int
		if b.Placement == PlacementChase {
			idx = i + j
			if idx >= i+b.Interval { // never cross into the next interval
				break
			}
		} else {
			idx = i + j*b.Interval/(b.L+1)
		}
		if idx == prev {
			continue
		}
		prev = idx
		dst = append(dst, idx)
	}
	return dst
}

// Name implements Sampler.
func (b BSS) Name() string { return "bss" }

// Stream implements Streamer.
func (b BSS) Stream() (StreamSampler, error) { return NewStreamBSS(b) }

// Sample implements Sampler. The returned slice holds base samples
// (Qualified=false) and kept extra samples (Qualified=true) in index
// order.
func (b BSS) Sample(f []float64) ([]Sample, error) { return sampleViaStream(b, f) }

// StreamBSS is the online form of BSS for router-style deployment: the
// BSS streaming state machine behind both the batch Sample adapter and
// the pipeline probes. It implements StreamSampler.
//
// The zero value is not usable; construct with NewStreamBSS.
type StreamBSS struct {
	cfg      BSS
	tick     int
	nextBase int
	running  stats.Accumulator
	baseSeen int
	ath      float64
	armed    bool // adaptive threshold active
	// extras[pi:] are the pending extra-probe ticks of the current
	// interval, ascending, each in [tick, nextBase). The cursor keeps
	// the slice's capacity, so rescheduling never reallocates.
	extras []int
	pi     int
}

// NewStreamBSS validates cfg and returns a streaming sampler.
func NewStreamBSS(cfg BSS) (*StreamBSS, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.PreSamples == 0 {
		cfg.PreSamples = 10
	}
	return &StreamBSS{cfg: cfg, nextBase: cfg.Offset, ath: cfg.Threshold, armed: cfg.Threshold > 0}, nil
}

// Name implements StreamSampler.
func (s *StreamBSS) Name() string { return "bss" }

// Offer implements StreamSampler. Base samples are emitted
// unconditionally; extra probes are emitted only when they qualify
// (exceed the threshold frozen at the triggering base sample).
func (s *StreamBSS) Offer(index int, value float64) (Sample, bool) {
	t := s.tick
	s.tick++
	if t == s.nextBase {
		s.base(t, value)
		return Sample{Index: index, Value: value}, true
	}
	if s.pi < len(s.extras) && s.extras[s.pi] == t {
		s.pi++
		if s.qualifies(value) {
			return Sample{Index: index, Value: value, Qualified: true}, true
		}
	}
	return Sample{}, false
}

// OfferBatch implements BatchStreamer. BSS reads only its base ticks
// and the probe ticks it scheduled, and both are known in advance: the
// kernel hops base -> pending probes -> next base and never reads the
// ticks in between.
//
//samplelint:hotpath
func (s *StreamBSS) OfferBatch(startIndex int, values []float64, dst []Sample) []Sample {
	t0 := s.tick
	end := t0 + len(values)
	for {
		// Every pending probe precedes the next base tick.
		if s.pi < len(s.extras) {
			t := s.extras[s.pi]
			if t >= end {
				break
			}
			s.pi++
			if v := values[t-t0]; s.qualifies(v) {
				dst = append(dst, Sample{Index: startIndex + t - t0, Value: v, Qualified: true})
			}
			continue
		}
		t := s.nextBase
		if t >= end {
			break
		}
		v := values[t-t0]
		s.base(t, v)
		dst = append(dst, Sample{Index: startIndex + t - t0, Value: v})
	}
	s.tick = end
	return dst
}

// base takes the base sample at tick t: it schedules the next base,
// folds the value into the running mean, re-arms the adaptive threshold
// and, when the value exceeds it, schedules this interval's probes.
func (s *StreamBSS) base(t int, value float64) {
	s.nextBase += s.cfg.Interval
	s.extras, s.pi = s.extras[:0], 0
	s.running.Add(value)
	s.baseSeen++
	if s.cfg.Threshold == 0 {
		if s.baseSeen >= s.cfg.PreSamples {
			s.ath = s.cfg.Epsilon * s.running.Mean()
			s.armed = true
		}
	}
	if s.armed && value > s.ath {
		s.extras = s.cfg.probeOffsets(t, s.extras)
	}
}

// qualifies reports whether a probe value exceeds the threshold and,
// if so, folds it into the running mean.
func (s *StreamBSS) qualifies(value float64) bool {
	if value > s.ath {
		s.running.Add(value)
		return true
	}
	return false
}

// Finish implements StreamSampler. Pending extra probes past the end of
// the stream are dropped, matching the batch rule that probes never land
// outside the series.
func (s *StreamBSS) Finish() ([]Sample, error) { return nil, nil }

// Mean returns the running mean over all kept samples, the estimator the
// adaptive threshold is built on.
func (s *StreamBSS) Mean() float64 { return s.running.Mean() }

// Kept returns how many samples have been recorded so far.
func (s *StreamBSS) Kept() int { return s.running.N() }

// Threshold returns the current a_th (0 until the warm-up completes in
// adaptive mode).
func (s *StreamBSS) Threshold() float64 {
	if !s.armed {
		return 0
	}
	return s.ath
}

var (
	_ Sampler       = BSS{}
	_ Streamer      = BSS{}
	_ BatchStreamer = (*StreamBSS)(nil)
)
