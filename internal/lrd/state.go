package lrd

import (
	"fmt"
	"math"

	"repro/internal/binenc"
	"repro/internal/stats"
)

// State serialization for the streaming estimators: each estimator can
// append its exact internal state to a byte blob and restore it into a
// fresh instance, so a Hurst ladder survives a process restart with the
// identical dyadic state — every half-block sum, every level
// accumulator — a never-stopped estimator would hold. Only the levels
// the stream has actually reached are written — the levels the ladder
// holds — so a young estimator's blob is a few dozen bytes, not
// maxStreamLevels records.
//
// Blobs are tagged per estimator kind and validated on restore; callers
// frame, version and checksum them (the sampling engine codec does).

const (
	stateTagAggVar  = 0x11
	stateTagWavelet = 0x12
	stateTagRS      = 0x13
)

func checkTag(r *binenc.Reader, want uint8, name string) error {
	if got := r.U8(); r.Err() == nil && got != want {
		return fmt.Errorf("lrd: state blob tagged %#02x is not %s state (tag %#02x)", got, name, want)
	}
	return r.Err()
}

// checkShape refuses a ladder header no tick sequence produces: a
// stream of n ticks holds exactly ladderLevels(n) levels.
func checkShape(name string, levels int, n int64) error {
	if n < 0 || levels != ladderLevels(n) {
		return fmt.Errorf("lrd: %s state declares %d levels over %d ticks", name, levels, n)
	}
	return nil
}

// openHalf reports whether level j of a ladder fed n ticks holds an
// open half-block: bit j of n.
func openHalf(n int64, j int) bool { return n>>j&1 == 1 }

// AppendState appends the ladder's exact state to dst.
func (s *StreamAggVar) AppendState(dst []byte) []byte {
	dst = binenc.AppendU8(dst, stateTagAggVar)
	dst = binenc.AppendI64(dst, int64(s.MinM))
	dst = binenc.AppendI64(dst, s.n)
	dst = binenc.AppendU8(dst, uint8(len(s.levels)))
	for j := range s.levels {
		l := &s.levels[j]
		dst = binenc.AppendF64(dst, l.half.sum)
		dst = binenc.AppendBool(dst, l.half.has)
		dst = l.acc.AppendState(dst)
	}
	return dst
}

// RestoreState overwrites the ladder from a blob written by AppendState.
// After n ticks level j has completed n>>j blocks and holds an open
// half-block exactly when bit j of n is set (the top level never opens
// one: its blocks have no next level to pair into); a blob of any other
// shape is refused.
func (s *StreamAggVar) RestoreState(data []byte) error {
	r := binenc.NewReader(data)
	if err := checkTag(r, stateTagAggVar, "aggvar"); err != nil {
		return err
	}
	minM := int(r.I64())
	n := r.I64()
	levels := int(r.U8())
	if err := r.Err(); err != nil {
		return err
	}
	if err := checkShape("aggvar", levels, n); err != nil {
		return err
	}
	next := StreamAggVar{MinM: minM, n: n, levels: make([]aggLevel, levels)}
	for j := range next.levels {
		l := &next.levels[j]
		l.half.sum = r.F64()
		l.half.has = r.Bool()
		acc := stats.ReadAccumulatorState(r)
		if r.Err() != nil {
			break
		}
		if l.half.has != (openHalf(n, j) && j < maxStreamLevels-1) || int64(acc.N) != n>>j {
			return fmt.Errorf("lrd: aggvar state level %d (open=%v, %d blocks) does not match %d ticks", j, l.half.has, acc.N, n)
		}
		l.acc.SetState(acc)
	}
	if err := r.End(); err != nil {
		return err
	}
	*s = next
	return nil
}

// CompareFoldedStates checks got, an aggvar ladder state, against ref,
// the state of a ladder fed the same ticks in another batch partition
// (one Tick per value, say). TickBatch promises exact structure — MinM,
// tick count, level count, every half-block flag and sum, and every
// level's block count, Min and Max — and level moments within
// stats.FoldTolerance (stats.CompareFolded). A NaN matches any NaN: its
// payload depends on the compiled operand order.
func CompareFoldedStates(ref, got []byte) error {
	var a, b StreamAggVar
	if err := a.RestoreState(ref); err != nil {
		return err
	}
	if err := b.RestoreState(got); err != nil {
		return err
	}
	if a.MinM != b.MinM || a.n != b.n || len(a.levels) != len(b.levels) {
		return fmt.Errorf("lrd: folded ladder minM=%d n=%d levels=%d, want minM=%d n=%d levels=%d",
			b.MinM, b.n, len(b.levels), a.MinM, a.n, len(a.levels))
	}
	for j := range a.levels {
		ha, hb := a.levels[j].half, b.levels[j].half
		if ha.has != hb.has || !(math.Float64bits(ha.sum) == math.Float64bits(hb.sum) || math.IsNaN(ha.sum) && math.IsNaN(hb.sum)) {
			return fmt.Errorf("lrd: folded level %d half-block %+v, want %+v", j, hb, ha)
		}
		if err := stats.CompareFolded(a.levels[j].acc.State(), b.levels[j].acc.State()); err != nil {
			return fmt.Errorf("lrd: level %d: %w", j, err)
		}
	}
	return nil
}

// AppendState appends the cascade's exact state to dst.
func (s *StreamWavelet) AppendState(dst []byte) []byte {
	dst = binenc.AppendU8(dst, stateTagWavelet)
	dst = binenc.AppendI64(dst, int64(s.JMin))
	dst = binenc.AppendI64(dst, s.n)
	dst = binenc.AppendU8(dst, uint8(len(s.levels)))
	for _, l := range s.levels {
		dst = binenc.AppendF64(dst, l.half.sum)
		dst = binenc.AppendBool(dst, l.half.has)
		dst = binenc.AppendF64(dst, l.energy)
		dst = binenc.AppendI64(dst, l.count)
	}
	return dst
}

// RestoreState overwrites the cascade from a blob written by
// AppendState. After n ticks slot j has emitted n>>(j+1) details and
// holds an open approximation exactly when bit j of n is set; a blob of
// any other shape is refused.
func (s *StreamWavelet) RestoreState(data []byte) error {
	r := binenc.NewReader(data)
	if err := checkTag(r, stateTagWavelet, "wavelet"); err != nil {
		return err
	}
	jMin := int(r.I64())
	n := r.I64()
	levels := int(r.U8())
	if err := r.Err(); err != nil {
		return err
	}
	if err := checkShape("wavelet", levels, n); err != nil {
		return err
	}
	next := StreamWavelet{JMin: jMin, n: n, levels: make([]waveletLevel, levels)}
	for j := range next.levels {
		l := &next.levels[j]
		l.half.sum = r.F64()
		l.half.has = r.Bool()
		l.energy = r.F64()
		l.count = r.I64()
		if r.Err() != nil {
			break
		}
		if l.half.has != openHalf(n, j) || l.count != n>>(j+1) {
			return fmt.Errorf("lrd: wavelet state slot %d (open=%v, %d details) does not match %d ticks", j, l.half.has, l.count, n)
		}
	}
	if err := r.End(); err != nil {
		return err
	}
	*s = next
	return nil
}

// AppendState appends the ring's exact state to dst: the window size,
// the tick count, the write position and the raw ring contents.
func (s *StreamRS) AppendState(dst []byte) []byte {
	dst = binenc.AppendU8(dst, stateTagRS)
	dst = binenc.AppendI64(dst, s.n)
	dst = binenc.AppendI64(dst, int64(s.pos))
	dst = binenc.AppendF64s(dst, s.window)
	return dst
}

// RestoreState overwrites the ring from a blob written by AppendState.
// The window is resized to the blob's window, so the restored estimator
// forgets exactly as much history as the original did.
func (s *StreamRS) RestoreState(data []byte) error {
	r := binenc.NewReader(data)
	if err := checkTag(r, stateTagRS, "rs"); err != nil {
		return err
	}
	n := r.I64()
	pos := int(r.I64())
	window := r.F64s()
	if err := r.End(); err != nil {
		return err
	}
	if len(window) < 256 || n < 0 || pos < 0 || pos >= len(window) {
		return fmt.Errorf("lrd: rs state inconsistent (window=%d n=%d pos=%d)", len(window), n, pos)
	}
	s.window = window
	s.n, s.pos = n, pos
	return nil
}
