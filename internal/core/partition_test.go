package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// partitionTicks decodes a tick series: a byte below 255 is the value
// b/16 (so thresholds and running means see repeats, zeros and
// bursts), and 255 takes the raw bits of the next 8 bytes — NaN,
// infinities, subnormals and ±0 among them.
func partitionTicks(data []byte) []float64 {
	var out []float64
	for len(data) > 0 {
		sel := data[0]
		data = data[1:]
		if sel < 255 {
			out = append(out, float64(sel)/16)
			continue
		}
		if len(data) < 8 {
			break
		}
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return out
}

// sameSamples compares sample sequences bit for bit, so a NaN value
// equals itself.
func sameSamples(a, b []Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || a[i].Qualified != b[i].Qualified ||
			math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// FuzzKernelPartition is the partition property of Kernel.OfferBatch:
// for any batchSpecs entry, any tick values and any split of the
// stream into batches (empty batches included), the batch kernel
// emits the per-tick oracle's samples, leaves the oracle's
// AppendState bytes before Finish, and finishes the same way.
func FuzzKernelPartition(f *testing.F) {
	trace := make([]byte, 0, 1200)
	for _, v := range streamTestTrace(1200) {
		trace = append(trace, byte(min(v*16, 254)))
	}
	for i := range batchSpecs {
		f.Add(uint8(i), trace, []byte{1, 7, 0, 41, 255, 129})
		f.Add(uint8(i), trace[:40], []byte{})
	}
	f.Add(uint8(8), append([]byte{255, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 3}, trace...), []byte{2, 0, 2})
	f.Fuzz(func(t *testing.T, which uint8, data, cuts []byte) {
		spec := batchSpecs[int(which)%len(batchSpecs)]
		ticks := partitionTicks(data)
		oracle, err := Lookup(spec)
		if err != nil {
			t.Fatal(err)
		}
		var want []Sample
		for i, v := range ticks {
			if s, ok := oracle.(tickKernel).Offer(i, v); ok {
				want = append(want, s)
			}
		}
		batched, err := Lookup(spec)
		if err != nil {
			t.Fatal(err)
		}
		var got []Sample
		for off := 0; off < len(ticks); {
			// Sizes up to 199 ticks, or multiples of 64 beyond.
			size := len(ticks) - off
			if len(cuts) > 0 {
				size = int(cuts[0])
				if size >= 200 {
					size = (size - 199) * 64
				}
				size = min(size, len(ticks)-off)
				cuts = cuts[1:]
			}
			got = batched.OfferBatch(off, ticks[off:off+size], got)
			off += size
		}
		if !sameSamples(got, want) {
			t.Fatalf("%s over %d ticks: batch kept %v, oracle kept %v", spec, len(ticks), got, want)
		}
		wantState, err := oracle.AppendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		gotState, err := batched.AppendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotState, wantState) {
			t.Fatalf("%s over %d ticks: batch state differs from the oracle's", spec, len(ticks))
		}
		wantTail, wantErr := oracle.Finish()
		gotTail, gotErr := batched.Finish()
		if (gotErr == nil) != (wantErr == nil) || !sameSamples(gotTail, wantTail) {
			t.Fatalf("%s: batch Finish %v, %v; oracle Finish %v, %v", spec, gotTail, gotErr, wantTail, wantErr)
		}
	})
}
