package core

// The per-tick state machines: every technique written a second time,
// one tick per call, as the independent oracle the batch kernels are
// checked against. Production code has one entry point, OfferBatch;
// these Offer methods exist only in tests. Each one visits every tick
// and decides it on the spot, where OfferBatch jumps skip-wise to the
// kept ticks — so a bug in the jump arithmetic shows up as a
// difference from this oracle.

// tickKernel is a Kernel with the per-tick reference form.
type tickKernel interface {
	Kernel
	// Offer presents the next tick. index is recorded in emitted samples
	// and must increase by one per call starting from the first offered
	// tick. It returns the sample finalized by this tick, if any — which
	// may carry an earlier index when the decision was deferred (e.g.
	// stratified sampling emits a stratum's pick only once the stratum
	// is complete). It consumes the random source in the same sequence
	// as OfferBatch, so any mix of Offer and OfferBatch on one kernel
	// equals the pure per-tick run.
	Offer(index int, value float64) (Sample, bool)
}

var (
	_ tickKernel = (*streamSystematic)(nil)
	_ tickKernel = (*streamStratified)(nil)
	_ tickKernel = (*streamSimpleRandom)(nil)
	_ tickKernel = (*streamBernoulli)(nil)
	_ tickKernel = (*StreamBSS)(nil)
)

// collectTicks is Collect driven one tick at a time through the oracle.
func collectTicks(k Kernel, f []float64) ([]Sample, error) {
	tk := k.(tickKernel)
	out := make([]Sample, 0, 16)
	for i, v := range f {
		if smp, ok := tk.Offer(i, v); ok {
			out = append(out, smp)
		}
	}
	tail, err := k.Finish()
	if err != nil {
		return nil, err
	}
	return append(out, tail...), nil
}

func (p *streamSystematic) Offer(index int, value float64) (Sample, bool) {
	t := p.tick
	p.tick++
	if t != p.next {
		return Sample{}, false
	}
	p.next += p.interval
	return Sample{Index: index, Value: value}, true
}

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

func (p *streamBernoulli) Offer(index int, value float64) (Sample, bool) {
	if p.skip > 0 {
		p.skip--
		return Sample{}, false
	}
	p.skip = geometricSkip(p.rng, p.logq)
	return Sample{Index: index, Value: value}, true
}

// Offer emits base samples unconditionally and extra probes only when
// they qualify (exceed the threshold frozen at the triggering base
// sample).
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
