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
// far), seeded from the first bssWarmup base samples and updated only
// at base samples — never while extra probes of the current interval
// are outstanding.
type BSS struct {
	Interval  int     // base sampling interval C >= 1
	Offset    int     // base offset in [0, Interval)
	L         int     // extra probes per triggered interval, >= 0 (0 degenerates to systematic)
	Epsilon   float64 // adaptive threshold multiplier (used when Threshold == 0)
	Threshold float64 // static a_th; > 0 disables the adaptive rule
}

// bssWarmup is the number of base samples the adaptive rule's running
// mean warms up on before it arms the threshold.
const bssWarmup = 10

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
	}
	return nil
}

// probeOffsets appends the extra-probe tick numbers for a trigger at base
// tick i, spaced C/(L+1) apart and skipping collisions. The stream has
// no end, so out-of-range probes simply never arrive.
func (b BSS) probeOffsets(i int, dst []int) []int {
	prev := i
	for j := 1; j <= b.L; j++ {
		idx := i + j*b.Interval/(b.L+1)
		if idx == prev {
			continue
		}
		prev = idx
		dst = append(dst, idx)
	}
	return dst
}

// Kernel validates the configuration and builds a fresh kernel. Its
// output holds base samples (Qualified=false) and kept extra samples
// (Qualified=true) in index order.
func (b BSS) Kernel() (Kernel, error) {
	s, err := NewStreamBSS(b)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// StreamBSS is the BSS kernel. Beyond the Kernel interface it exposes
// the running mean and threshold its adaptive rule is built on.
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

// NewStreamBSS validates cfg and returns its kernel.
func NewStreamBSS(cfg BSS) (*StreamBSS, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &StreamBSS{cfg: cfg, nextBase: cfg.Offset, ath: cfg.Threshold, armed: cfg.Threshold > 0}, nil
}

// Name implements Kernel.
func (s *StreamBSS) Name() string { return "bss" }

// OfferBatch implements Kernel. BSS reads only its base ticks
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
		if s.baseSeen >= bssWarmup {
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

// Finish implements Kernel. Pending extra probes past the end of
// the stream are dropped, matching the batch rule that probes never land
// outside the series.
func (s *StreamBSS) Finish() ([]Sample, error) { return nil, nil }
