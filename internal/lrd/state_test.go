package lrd

import (
	"bytes"
	"math"
	"math/bits"
	"testing"

	"repro/internal/binenc"
	"repro/internal/dist"
)

// stateTrace is a deterministic mildly bursty series long enough to
// fill several ladder levels.
func stateTrace(n int) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = 1 + math.Sin(float64(i)/7)*math.Cos(float64(i)/101) + float64(i%13)/13
	}
	return f
}

// TestStreamStateRoundTrip: capture mid-stream, restore into a fresh
// instance, finish the stream on both, and require byte-identical
// estimates — the ladder invariant the engine codec builds on. The cut
// point is deliberately off any power-of-two boundary so open
// half-blocks are part of the captured state.
func TestStreamStateRoundTrip(t *testing.T) {
	f := stateTrace(5000)
	cut := 3001

	t.Run("aggvar", func(t *testing.T) {
		var live StreamAggVar
		for _, v := range f[:cut] {
			live.Tick(v)
		}
		var restored StreamAggVar
		if err := restored.RestoreState(live.AppendState(nil)); err != nil {
			t.Fatal(err)
		}
		for _, v := range f[cut:] {
			live.Tick(v)
			restored.Tick(v)
		}
		a, errA := live.Estimate()
		b, errB := restored.Estimate()
		if (errA == nil) != (errB == nil) || a != b {
			t.Fatalf("estimates diverge: %+v (%v) vs %+v (%v)", a, errA, b, errB)
		}
		if live.N() != restored.N() {
			t.Fatalf("tick counts diverge: %d vs %d", live.N(), restored.N())
		}
	})

	t.Run("wavelet", func(t *testing.T) {
		var live StreamWavelet
		for _, v := range f[:cut] {
			live.Tick(v)
		}
		var restored StreamWavelet
		if err := restored.RestoreState(live.AppendState(nil)); err != nil {
			t.Fatal(err)
		}
		for _, v := range f[cut:] {
			live.Tick(v)
			restored.Tick(v)
		}
		a, errA := live.Estimate()
		b, errB := restored.Estimate()
		if (errA == nil) != (errB == nil) || a != b {
			t.Fatalf("estimates diverge: %+v (%v) vs %+v (%v)", a, errA, b, errB)
		}
	})

	t.Run("rs", func(t *testing.T) {
		live := NewStreamRS()
		for _, v := range f[:cut] {
			live.Tick(v)
		}
		restored := NewStreamRS()
		if err := restored.RestoreState(live.AppendState(nil)); err != nil {
			t.Fatal(err)
		}
		for _, v := range f[cut:] {
			live.Tick(v)
			restored.Tick(v)
		}
		a, errA := live.Estimate()
		b, errB := restored.Estimate()
		if (errA == nil) != (errB == nil) || a != b {
			t.Fatalf("estimates diverge: %+v (%v) vs %+v (%v)", a, errA, b, errB)
		}
	})
}

// TestStreamStateRejectsWrongKind: a blob from one estimator kind must
// not restore into another.
func TestStreamStateRejectsWrongKind(t *testing.T) {
	var av StreamAggVar
	av.Tick(1)
	blob := av.AppendState(nil)
	var wv StreamWavelet
	if err := wv.RestoreState(blob); err == nil {
		t.Fatal("wavelet accepted an aggvar blob")
	}
	if err := NewStreamRS().RestoreState(blob); err == nil {
		t.Fatal("rs accepted an aggvar blob")
	}
	if err := av.RestoreState(blob[:len(blob)-3]); err == nil {
		t.Fatal("aggvar accepted a truncated blob")
	}
}

// TestStreamStateRejectsTrailingBytes: every estimator accepts only the
// bytes its AppendState writes, so whatever restores re-marshals to the
// same blob.
func TestStreamStateRejectsTrailingBytes(t *testing.T) {
	for name, est := range map[string]batchTicker{"aggvar": &StreamAggVar{}, "wavelet": &StreamWavelet{}, "rs": NewStreamRS()} {
		est.TickBatch([]float64{1, 2, 3, 4, 5})
		blob := est.AppendState(nil)
		if err := est.RestoreState(blob); err != nil {
			t.Fatalf("%s: own blob: %v", name, err)
		}
		if err := est.RestoreState(append(blob, 0)); err == nil {
			t.Errorf("%s accepted a blob with a trailing byte", name)
		}
	}
}

// batchTicker is the batch-form contract every streaming estimator
// keeps: TickBatch leaves the state AppendState captures byte for byte
// where one Tick per value would.
type batchTicker interface {
	Tick(v float64)
	TickBatch(values []float64)
	AppendState(dst []byte) []byte
	RestoreState(data []byte) error
}

// TestTickBatchMatchesTick drives a Tick-fed and a TickBatch-fed twin
// from the same restored state through batches of awkward sizes and
// compares their AppendState bytes after every batch. The start states
// include fresh ladders and ladders with open half-blocks on several
// levels (n = 45 = 0b101101 and n = 1023), so the batch form must
// honour pending halves and the stale sums of closed ones. Aggvar
// batches of two or more ticks merge their moments, so there the
// comparison is CompareFoldedStates: exact structure, moments within
// the fold tolerance.
func TestTickBatchMatchesTick(t *testing.T) {
	f := stateTrace(3*8192 + 17)
	// The arithmetic must match on these too. (Not on a NaN input: when
	// two NaNs meet, which payload survives depends on the compiled
	// operand order, and Inf - Inf already makes NaNs of its own.)
	f[101], f[4097] = math.Inf(1), math.Copysign(0, -1)
	kinds := []struct {
		name string
		make func() batchTicker
	}{
		{"aggvar", func() batchTicker { return &StreamAggVar{} }},
		{"wavelet", func() batchTicker { return &StreamWavelet{} }},
		{"rs", func() batchTicker { return NewStreamRS() }},
	}
	sizes := []int{0, 1, 2, 3, 7, 63, 64, 65, 255, 257, 8191, 8192, 8193}
	for _, k := range kinds {
		for _, start := range []int{0, 45, 1023} {
			seed := k.make()
			for _, v := range f[len(f)-start:] {
				seed.Tick(v)
			}
			blob := seed.AppendState(nil)
			for _, size := range sizes {
				ticked, batched := k.make(), k.make()
				if err := ticked.RestoreState(blob); err != nil {
					t.Fatal(err)
				}
				if err := batched.RestoreState(blob); err != nil {
					t.Fatal(err)
				}
				// Small batches stop sooner: 300 batches still cross
				// several power-of-two boundaries.
				total := min(2*8192+5, 300*max(size, 1))
				// Both states are appended into buffers reused across
				// batches: rs's is 32 KiB a side.
				var a, b []byte
				for off := 0; off < total; off += max(size, 1) {
					chunk := f[off : off+size]
					for _, v := range chunk {
						ticked.Tick(v)
					}
					batched.TickBatch(chunk)
					a, b = ticked.AppendState(a[:0]), batched.AppendState(b[:0])
					if k.name == "aggvar" && size > 1 {
						if err := CompareFoldedStates(a, b); err != nil {
							t.Fatalf("%s start=%d size=%d: after %d ticks: %v", k.name, start, size, off+size, err)
						}
					} else if !bytes.Equal(a, b) {
						t.Fatalf("%s start=%d size=%d: state diverges after %d ticks", k.name, start, size, off+size)
					}
				}
			}
		}
	}
}

// TestLadderShapeFollowsTicks: n ticks, in any batch partition, leave
// a ladder of exactly bits.Len64(n) levels; aggvar level j has
// completed n>>j blocks, wavelet slot j has emitted n>>(j+1) details,
// and every open half-block flag is bit j of n. RestoreState refuses
// any other shape on this invariant, and accepts every shape reached.
func TestLadderShapeFollowsTicks(t *testing.T) {
	f := stateTrace(300000)
	rng := dist.NewRand(17)
	for trial := 0; trial < 6; trial++ {
		var agg StreamAggVar
		var wav StreamWavelet
		total := 1 + rng.IntN(len(f))
		for off := 0; off < total; {
			size := min(rng.IntN(1<<(1+rng.IntN(14))), total-off)
			agg.TickBatch(f[off : off+size])
			wav.TickBatch(f[off : off+size])
			off += size
			n := int64(off)
			if len(agg.levels) != bits.Len64(uint64(n)) || len(wav.levels) != bits.Len64(uint64(n)) {
				t.Fatalf("n=%d: %d aggvar / %d wavelet levels, want %d", n, len(agg.levels), len(wav.levels), bits.Len64(uint64(n)))
			}
			for j := range agg.levels {
				open := n>>j&1 == 1
				if a := &agg.levels[j]; a.half.has != open || int64(a.acc.N()) != n>>j {
					t.Fatalf("n=%d aggvar level %d: open=%v blocks=%d", n, j, a.half.has, a.acc.N())
				}
				if w := &wav.levels[j]; w.half.has != open || w.count != n>>(j+1) {
					t.Fatalf("n=%d wavelet slot %d: open=%v details=%d", n, j, w.half.has, w.count)
				}
			}
			if err := new(StreamAggVar).RestoreState(agg.AppendState(nil)); err != nil {
				t.Fatalf("n=%d: aggvar blob refused: %v", n, err)
			}
			if err := new(StreamWavelet).RestoreState(wav.AppendState(nil)); err != nil {
				t.Fatalf("n=%d: wavelet blob refused: %v", n, err)
			}
		}
	}
}

// TestLadderRestoreRejectsImpossibleShapes: a ladder blob whose level
// count, open half-blocks or block counts no tick sequence produces, or
// whose reserved field is not 0, is refused, and the ladder is left as
// it was.
func TestLadderRestoreRejectsImpossibleShapes(t *testing.T) {
	const head = 1 + 8 + 8 + 1 // tag, reserved, n, level count
	kinds := []struct {
		name   string
		make   func() batchTicker
		record int // bytes per level
		count  int // offset of the level's block/detail count in its record
	}{
		{"aggvar", func() batchTicker { return &StreamAggVar{} }, 8 + 1 + 6*8, 8 + 1},
		{"wavelet", func() batchTicker { return &StreamWavelet{} }, 8 + 1 + 8 + 8, 8 + 1 + 8},
	}
	for _, k := range kinds {
		five := k.make()
		five.TickBatch(stateTrace(5)) // 0b101: three levels, levels 0 and 2 open
		blob := five.AppendState(nil)
		if len(blob) != head+3*k.record {
			t.Fatalf("%s: %d-byte blob, want %d", k.name, len(blob), head+3*k.record)
		}
		levels48 := append(bytes.Clone(blob), make([]byte, 45*k.record)...)
		levels48[head-1] = 48
		short := bytes.Clone(blob[:head+2*k.record])
		short[head-1] = 2
		closed := bytes.Clone(blob)
		closed[head+2*k.record+8] = 0
		opened := bytes.Clone(blob)
		opened[head+k.record+8] = 1
		counted := bytes.Clone(blob)
		counted[head+k.count]++
		negative := bytes.Clone(blob)
		copy(negative[9:], binenc.AppendI64(nil, -5))
		reserved := bytes.Clone(blob)
		copy(reserved[1:], binenc.AppendI64(nil, 3))
		for name, bad := range map[string][]byte{
			"48 levels over 5 ticks": levels48,
			"2 levels over 5 ticks":  short,
			"closed top half-block":  closed,
			"open level-1 half":      opened,
			"level-0 count":          counted,
			"negative ticks":         negative,
			"nonzero reserved field": reserved,
		} {
			l := k.make()
			l.TickBatch(stateTrace(3))
			before := l.AppendState(nil)
			if err := l.RestoreState(bad); err == nil {
				t.Errorf("%s: %s restored", k.name, name)
			}
			if !bytes.Equal(l.AppendState(nil), before) {
				t.Errorf("%s: refused %s changed the ladder", k.name, name)
			}
		}
		if err := k.make().RestoreState(blob); err != nil {
			t.Errorf("%s: genuine blob refused: %v", k.name, err)
		}
	}
}

// TestRSRestoreRejectsOtherRings: an rs blob whose ring is not
// rsWindow ticks, or whose write position is not where n ticks leave
// it, is refused, and the ring is left as it was.
func TestRSRestoreRejectsOtherRings(t *testing.T) {
	ring := func(window int, n, pos int64) []byte {
		b := binenc.AppendU8(nil, stateTagRS)
		b = binenc.AppendI64(b, n)
		b = binenc.AppendI64(b, pos)
		return binenc.AppendF64s(b, stateTrace(window))
	}
	if err := NewStreamRS().RestoreState(ring(rsWindow, 5000, 5000%rsWindow)); err != nil {
		t.Fatalf("genuine ring refused: %v", err)
	}
	for name, bad := range map[string][]byte{
		"256-tick ring":     ring(256, 5000, 5000%256),
		"4095-tick ring":    ring(rsWindow-1, 5000, 5000%(rsWindow-1)),
		"8192-tick ring":    ring(2*rsWindow, 5000, 5000),
		"position behind n": ring(rsWindow, 5000, 903),
	} {
		r := NewStreamRS()
		r.TickBatch(stateTrace(3))
		before := r.AppendState(nil)
		if err := r.RestoreState(bad); err == nil {
			t.Errorf("%s restored", name)
		}
		if !bytes.Equal(r.AppendState(nil), before) {
			t.Errorf("refused %s changed the ring", name)
		}
	}
}
