package lrd

import (
	"bytes"
	"math"
	"testing"
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
		live := NewStreamRS(512)
		for _, v := range f[:cut] {
			live.Tick(v)
		}
		restored := NewStreamRS(0) // restore must adopt the blob's window size
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
	if err := NewStreamRS(0).RestoreState(blob); err == nil {
		t.Fatal("rs accepted an aggvar blob")
	}
	if err := av.RestoreState(blob[:len(blob)-3]); err == nil {
		t.Fatal("aggvar accepted a truncated blob")
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
// honour pending halves and the stale sums of closed ones.
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
		{"rs", func() batchTicker { return NewStreamRS(256) }},
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
				for off := 0; off < total; off += max(size, 1) {
					chunk := f[off : off+size]
					for _, v := range chunk {
						ticked.Tick(v)
					}
					batched.TickBatch(chunk)
					if a, b := ticked.AppendState(nil), batched.AppendState(nil); !bytes.Equal(a, b) {
						t.Fatalf("%s start=%d size=%d: state diverges after %d ticks", k.name, start, size, off+size)
					}
				}
			}
		}
	}
}
