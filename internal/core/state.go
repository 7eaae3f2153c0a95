package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/binenc"
	"repro/internal/stats"
)

// Kernel state tags: the first byte of every kernel blob names the
// technique that wrote it, so a blob applied to the wrong kernel type
// fails loudly instead of misparsing.
const (
	stateTagSystematic   = 0x01
	stateTagStratified   = 0x02
	stateTagSimpleRandom = 0x03
	stateTagBernoulli    = 0x04
	stateTagBSS          = 0x05
)

func appendSample(dst []byte, s Sample) []byte {
	dst = binenc.AppendI64(dst, int64(s.Index))
	dst = binenc.AppendF64(dst, s.Value)
	dst = binenc.AppendBool(dst, s.Qualified)
	return dst
}

func readSample(r *binenc.Reader) Sample {
	return Sample{Index: int(r.I64()), Value: r.F64(), Qualified: r.Bool()}
}

// sampleSize is one encoded Sample: index i64, value f64, qualified
// byte.
const sampleSize = 8 + 8 + 1

// appendReservoir appends a u32 count and then one sample record per
// reservoir slot in appendSample's layout, its qualified byte always 0,
// in one pass over a slice grown once.
func appendReservoir(dst []byte, idx []int, val []float64) []byte {
	dst = binenc.AppendU32(dst, uint32(len(idx)))
	n := len(dst)
	dst = slices.Grow(dst, sampleSize*len(idx))[:n+sampleSize*len(idx)]
	raw := dst[n:]
	for k, index := range idx {
		e := raw[sampleSize*k : sampleSize*(k+1)]
		binary.LittleEndian.PutUint64(e, uint64(index))
		binary.LittleEndian.PutUint64(e[8:], math.Float64bits(val[k]))
		e[16] = 0
	}
	return dst
}

// readReservoir reads the form appendReservoir writes: one bounded read
// holds the count against the bytes left before anything is allocated,
// and the records decode from that raw view into the two columns. A
// nonzero qualified byte is an error: no stream of ticks puts a
// qualified sample in a reservoir.
func readReservoir(r *binenc.Reader) (idx []int, val []float64, err error) {
	n := int(r.U32())
	raw := r.Raw(sampleSize * n)
	if r.Err() != nil || n == 0 {
		return nil, nil, r.Err()
	}
	idx, val = make([]int, n), make([]float64, n)
	for k := range idx {
		e := raw[sampleSize*k : sampleSize*(k+1)]
		if e[16] != 0 {
			return nil, nil, fmt.Errorf("core: simple-random reservoir state sample %d: qualified byte %d, want 0", k, e[16])
		}
		idx[k] = int(binary.LittleEndian.Uint64(e))
		val[k] = math.Float64frombits(binary.LittleEndian.Uint64(e[8:]))
	}
	return idx, val, nil
}

// checkTag consumes and verifies the leading technique tag.
func checkTag(r *binenc.Reader, want uint8, name string) error {
	if got := r.U8(); r.Err() == nil && got != want {
		return fmt.Errorf("core: state blob tagged %#02x is not %s state (tag %#02x)", got, name, want)
	}
	return r.Err()
}

// mismatch flags a state blob whose embedded configuration differs from
// the kernel it is being applied to.
func mismatch(name, field string, blob, kernel any) error {
	return fmt.Errorf("core: %s state %s %v does not match kernel %s %v", name, field, blob, field, kernel)
}

// AppendState implements Kernel.
func (p *streamSystematic) AppendState(dst []byte) ([]byte, error) {
	dst = binenc.AppendU8(dst, stateTagSystematic)
	dst = binenc.AppendI64(dst, int64(p.interval))
	dst = binenc.AppendI64(dst, int64(p.next))
	dst = binenc.AppendI64(dst, int64(p.tick))
	return dst, nil
}

// RestoreState implements Kernel.
func (p *streamSystematic) RestoreState(data []byte) error {
	r := binenc.NewReader(data)
	if err := checkTag(r, stateTagSystematic, "systematic"); err != nil {
		return err
	}
	interval, next, tick := int(r.I64()), int(r.I64()), int(r.I64())
	if err := r.Err(); err != nil {
		return err
	}
	if interval != p.interval {
		return mismatch("systematic", "interval", interval, p.interval)
	}
	if tick < 0 || next < tick {
		return fmt.Errorf("core: systematic state next=%d tick=%d violates next >= tick >= 0", next, tick)
	}
	p.next, p.tick = next, tick
	return nil
}

// AppendState implements Kernel.
func (p *streamStratified) AppendState(dst []byte) ([]byte, error) {
	dst = binenc.AppendU8(dst, stateTagStratified)
	dst = binenc.AppendI64(dst, int64(p.interval))
	dst = binenc.AppendI64(dst, int64(p.tick))
	dst = binenc.AppendI64(dst, int64(p.pick))
	dst = appendSample(dst, p.pending)
	return p.rng.appendState(dst)
}

// RestoreState implements Kernel.
func (p *streamStratified) RestoreState(data []byte) error {
	r := binenc.NewReader(data)
	if err := checkTag(r, stateTagStratified, "stratified"); err != nil {
		return err
	}
	interval, tick, pick := int(r.I64()), int(r.I64()), int(r.I64())
	pending := readSample(r)
	rngState := r.Bytes()
	if err := r.Err(); err != nil {
		return err
	}
	if interval != p.interval {
		return mismatch("stratified", "interval", interval, p.interval)
	}
	if tick < 0 || pick < 0 || pick >= interval {
		return fmt.Errorf("core: stratified state tick=%d pick=%d outside stratum of %d", tick, pick, interval)
	}
	if err := p.rng.restoreState(rngState); err != nil {
		return err
	}
	p.tick, p.pick, p.pending = tick, pick, pending
	return nil
}

// AppendState implements Kernel. Rate mode's candidate buffer
// is written in full — the regime's documented O(stream length) state —
// so a restored rate-mode kernel still owns every candidate tick.
func (p *streamSimpleRandom) AppendState(dst []byte) ([]byte, error) {
	dst = binenc.AppendU8(dst, stateTagSimpleRandom)
	dst = binenc.AppendI64(dst, int64(p.n))
	dst = binenc.AppendF64(dst, p.rate)
	dst = binenc.AppendI64(dst, int64(p.seen))
	dst = appendReservoir(dst, p.resIdx, p.resVal)
	dst = binenc.AppendF64(dst, p.w)
	dst = binenc.AppendI64(dst, int64(p.skip))
	dst = binenc.AppendF64s(dst, p.buf)
	dst = binenc.AppendI64(dst, int64(p.base))
	return p.rng.appendState(dst)
}

// RestoreState implements Kernel.
func (p *streamSimpleRandom) RestoreState(data []byte) error {
	r := binenc.NewReader(data)
	if err := checkTag(r, stateTagSimpleRandom, "simple-random"); err != nil {
		return err
	}
	n, rate, seen := int(r.I64()), r.F64(), int(r.I64())
	resIdx, resVal, err := readReservoir(r)
	if err != nil {
		return err
	}
	w, skip := r.F64(), int(r.I64())
	buf := r.F64s()
	base := int(r.I64())
	rngState := r.Bytes()
	if err := r.Err(); err != nil {
		return err
	}
	if n != p.n {
		return mismatch("simple-random", "n", n, p.n)
	}
	if rate != p.rate {
		return mismatch("simple-random", "rate", rate, p.rate)
	}
	// Every stream of ticks ties seen to the data Finish draws from:
	// fixed-n mode fills the reservoir up to n, rate mode buffers every
	// tick. A blob that breaks the tie is refused here, not left to
	// panic in Finish.
	held, want := len(buf), seen
	if n > 0 {
		held, want = len(resIdx), min(seen, n)
	}
	if seen < 0 || skip < 0 || held != want || len(resIdx) > n || (n > 0 && len(buf) > 0) {
		return fmt.Errorf("core: simple-random state inconsistent (seen=%d skip=%d reservoir=%d/%d buffered=%d)",
			seen, skip, len(resIdx), n, len(buf))
	}
	if err := p.rng.restoreState(rngState); err != nil {
		return err
	}
	p.seen, p.resIdx, p.resVal, p.w, p.skip, p.buf, p.base = seen, resIdx, resVal, w, skip, buf, base
	return nil
}

// AppendState implements Kernel.
func (p *streamBernoulli) AppendState(dst []byte) ([]byte, error) {
	dst = binenc.AppendU8(dst, stateTagBernoulli)
	dst = binenc.AppendF64(dst, p.rate)
	dst = binenc.AppendI64(dst, int64(p.skip))
	return p.rng.appendState(dst)
}

// RestoreState implements Kernel. logq is a pure function of
// the rate, so only the skip counter and the RNG position travel.
func (p *streamBernoulli) RestoreState(data []byte) error {
	r := binenc.NewReader(data)
	if err := checkTag(r, stateTagBernoulli, "bernoulli"); err != nil {
		return err
	}
	rate, skip := r.F64(), int(r.I64())
	rngState := r.Bytes()
	if err := r.Err(); err != nil {
		return err
	}
	if rate != p.rate {
		return mismatch("bernoulli", "rate", rate, p.rate)
	}
	if skip < 0 {
		return fmt.Errorf("core: bernoulli state skip %d must be >= 0", skip)
	}
	if err := p.rng.restoreState(rngState); err != nil {
		return err
	}
	p.skip = skip
	return nil
}

// AppendState implements Kernel. BSS draws no randomness; its
// state is the base-sample schedule, the adaptive-threshold accumulator
// and the pending extra-probe ticks.
func (s *StreamBSS) AppendState(dst []byte) ([]byte, error) {
	dst = binenc.AppendU8(dst, stateTagBSS)
	dst = binenc.AppendI64(dst, int64(s.cfg.Interval))
	dst = binenc.AppendI64(dst, int64(s.cfg.L))
	dst = binenc.AppendI64(dst, int64(s.tick))
	dst = binenc.AppendI64(dst, int64(s.nextBase))
	dst = s.running.AppendState(dst)
	dst = binenc.AppendI64(dst, int64(s.baseSeen))
	dst = binenc.AppendF64(dst, s.ath)
	dst = binenc.AppendBool(dst, s.armed)
	pending := s.extras[s.pi:]
	dst = binenc.AppendU32(dst, uint32(len(pending)))
	for _, t := range pending {
		dst = binenc.AppendI64(dst, int64(t))
	}
	return dst, nil
}

// RestoreState implements Kernel.
func (s *StreamBSS) RestoreState(data []byte) error {
	r := binenc.NewReader(data)
	if err := checkTag(r, stateTagBSS, "bss"); err != nil {
		return err
	}
	interval, l := int(r.I64()), int(r.I64())
	tick, nextBase := int(r.I64()), int(r.I64())
	accState := stats.ReadAccumulatorState(r)
	baseSeen := int(r.I64())
	ath := r.F64()
	armed := r.Bool()
	nextras := int(r.U32())
	if r.Err() == nil && r.Remaining() < 8*nextras {
		return fmt.Errorf("core: bss state declares %d extra probes beyond the blob", nextras)
	}
	var extras []int
	if nextras > 0 {
		extras = make([]int, nextras)
		for i := range extras {
			extras[i] = int(r.I64())
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	if interval != s.cfg.Interval {
		return mismatch("bss", "interval", interval, s.cfg.Interval)
	}
	if l != s.cfg.L {
		return mismatch("bss", "L", l, s.cfg.L)
	}
	if tick < 0 || baseSeen < 0 || accState.N < 0 {
		return fmt.Errorf("core: bss state counters negative (tick=%d baseSeen=%d accN=%d)", tick, baseSeen, accState.N)
	}
	// The batch kernel relies on the schedule invariant every stream of
	// ticks keeps: the next base is not behind the stream, and the
	// pending probes ascend strictly inside [tick, nextBase).
	if nextBase < tick {
		return fmt.Errorf("core: bss state next base %d behind tick %d", nextBase, tick)
	}
	for i, t := range extras {
		if t < tick || t >= nextBase || (i > 0 && t <= extras[i-1]) {
			return fmt.Errorf("core: bss state probe schedule %v outside [%d, %d) or not ascending", extras, tick, nextBase)
		}
	}
	s.tick, s.nextBase, s.baseSeen, s.ath, s.armed = tick, nextBase, baseSeen, ath, armed
	s.extras, s.pi = extras, 0
	s.running.SetState(accState)
	return nil
}
