package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/binenc"
)

// reservoirKernel is a simple:n=1000 kernel fed long enough that its
// reservoir is full and has been replaced into many times.
func reservoirKernel(t *testing.T) *streamSimpleRandom {
	t.Helper()
	eng, err := Lookup("simple:n=1000,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	p := eng.(*streamSimpleRandom)
	f := streamTestTrace(20000)
	for off := 0; off < len(f); off += 512 {
		p.OfferBatch(off, f[off:min(off+512, len(f))], nil)
	}
	if len(p.resIdx) != 1000 || len(p.resVal) != 1000 {
		t.Fatalf("reservoir holds %d/%d samples, want 1000", len(p.resIdx), len(p.resVal))
	}
	return p
}

// TestReservoirStateLayout: the bulk reservoir codec writes exactly the
// per-field layout (count, then index/value/qualified per sample) with
// every qualified byte 0, a restored kernel writes the identical blob
// back, and a blob whose qualified byte is 1 — a sample no stream of
// ticks puts in a reservoir — is refused.
func TestReservoirStateLayout(t *testing.T) {
	p := reservoirKernel(t)
	blob, err := p.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := binenc.AppendU32(nil, uint32(len(p.resIdx)))
	for k, index := range p.resIdx {
		want = appendSample(want, Sample{Index: index, Value: p.resVal[k]})
	}
	const head = 1 + 8 + 8 + 8 // tag, n, rate, seen
	if got := blob[head : head+len(want)]; !bytes.Equal(got, want) {
		t.Fatal("bulk reservoir encoding differs from the per-field layout")
	}
	for k := range p.resIdx {
		if flag := blob[head+4+sampleSize*k+16]; flag != 0 {
			t.Fatalf("sample %d: qualified byte %d, want 0", k, flag)
		}
	}

	fresh, _ := Lookup("simple:n=1000,seed=7")
	if err := fresh.(*streamSimpleRandom).RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	again, err := fresh.(*streamSimpleRandom).AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("restored reservoir kernel writes a different blob")
	}

	qualified := bytes.Clone(blob)
	qualified[head+4+sampleSize*3+16] = 1
	other, _ := Lookup("simple:n=1000,seed=7")
	if err := other.RestoreState(qualified); err == nil || !strings.Contains(err.Error(), "qualified byte 1") {
		t.Fatalf("RestoreState of a qualified reservoir sample = %v, want refusal", err)
	}
}

// TestReservoirFinishSortsSlots: Finish returns the reservoir in index
// order and leaves the slots in that order, so a finished stream's
// checkpoint records them ascending.
func TestReservoirFinishSortsSlots(t *testing.T) {
	p := reservoirKernel(t)
	out, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := p.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	const head = 1 + 8 + 8 + 8 + 4 // tag, n, rate, seen, count
	for k, s := range out {
		if k > 0 && s.Index <= out[k-1].Index {
			t.Fatalf("Finish sample %d: index %d after %d", k, s.Index, out[k-1].Index)
		}
		rec := blob[head+sampleSize*k:]
		if got := int(binary.LittleEndian.Uint64(rec)); got != s.Index {
			t.Fatalf("checkpoint slot %d holds index %d, Finish returned %d", k, got, s.Index)
		}
	}
}

// TestReservoirRestoreRejectsCorruption: a nonzero qualified byte, a
// count reaching past the blob, and a seen counter that does
// not match the buffered data (reservoir or rate-mode buffer) are
// refused, and the kernel is left as it was.
func TestReservoirRestoreRejectsCorruption(t *testing.T) {
	p := reservoirKernel(t)
	blob, err := p.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	const (
		seen  = 1 + 8 + 8     // offset of the seen counter
		count = 1 + 8 + 8 + 8 // offset of the reservoir count
	)
	badFlag := bytes.Clone(blob)
	badFlag[count+4+sampleSize*500+16] = 2
	longCount := bytes.Clone(blob)
	copy(longCount[count:], binenc.AppendU32(nil, 1<<20))
	// A full reservoir of 1000 claiming only 500 ticks seen.
	shortSeen := bytes.Clone(blob)
	copy(shortSeen[seen:], binenc.AppendI64(nil, 500))
	// A rate-mode kernel claiming 5 ticks seen with nothing buffered:
	// Finish would draw one position from an empty population.
	rate, err := Lookup("simple:rate=0.01,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	emptyBuf, err := rate.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	copy(emptyBuf[seen:], binenc.AppendI64(nil, 5))
	inconsistent := func(err error) bool { return err != nil && strings.Contains(err.Error(), "inconsistent") }
	for name, tc := range map[string]struct {
		spec string
		blob []byte
		want func(error) bool
	}{
		"qualified byte": {"simple:n=1000,seed=7", badFlag, func(err error) bool { return err != nil && strings.Contains(err.Error(), "qualified byte 2") }},
		"count":          {"simple:n=1000,seed=7", longCount, func(err error) bool { return errors.Is(err, binenc.ErrTruncated) }},
		"reservoir seen": {"simple:n=1000,seed=7", shortSeen, inconsistent},
		"rate-mode seen": {"simple:rate=0.01,seed=7", emptyBuf, inconsistent},
	} {
		fresh, _ := Lookup(tc.spec)
		k := fresh.(*streamSimpleRandom)
		if err := k.RestoreState(tc.blob); !tc.want(err) {
			t.Errorf("%s: RestoreState = %v", name, err)
		}
		if k.resIdx != nil || k.resVal != nil || k.buf != nil || k.seen != 0 {
			t.Errorf("%s: failed restore changed the kernel (reservoir %d, buffered %d, seen %d)", name, len(k.resIdx), len(k.buf), k.seen)
		}
	}
}

// TestKernelStateRejectsTrailingBytes: every kernel accepts only the
// bytes its AppendState writes, so whatever restores re-marshals to the
// same blob.
func TestKernelStateRejectsTrailingBytes(t *testing.T) {
	f := streamTestTrace(2000)
	for _, spec := range batchSpecs {
		k, err := Lookup(spec)
		if err != nil {
			t.Fatal(err)
		}
		k.OfferBatch(0, f, nil)
		blob, err := k.AppendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := Lookup(spec)
		if err := fresh.RestoreState(blob); err != nil {
			t.Fatalf("%s: own blob: %v", spec, err)
		}
		if err := fresh.RestoreState(append(blob, 0)); err == nil {
			t.Errorf("%s accepted a blob with a trailing byte", spec)
		}
	}
}
