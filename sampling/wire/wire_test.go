package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"
)

// frame builds one valid encoded frame, via the API under test's own
// primitive so layout changes only need updating in one place.
func frame(t testing.TB, id string, ticks []float64) []byte {
	t.Helper()
	buf, err := AppendFrame(nil, id, ticks)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestRoundTrip(t *testing.T) {
	batches := []struct {
		id    string
		ticks []float64
	}{
		{"link0", []float64{1, 2.5, -3, 1e-300, 1e300}},
		{"", []float64{42}},
		{"link0", nil}, // empty batch, same id as the first
		{strings.Repeat("x", MaxIDLen), []float64{0, math.SmallestNonzeroFloat64}},
	}
	var wireBytes bytes.Buffer
	enc := NewEncoder(&wireBytes)
	for _, b := range batches {
		if err := enc.Encode(b.id, b.ticks); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&wireBytes, 0)
	for i, b := range batches {
		id, ticks, err := dec.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if id != b.id {
			t.Errorf("frame %d: id %q, want %q", i, id, b.id)
		}
		if len(ticks) != len(b.ticks) {
			t.Fatalf("frame %d: %d ticks, want %d", i, len(ticks), len(b.ticks))
		}
		for j := range ticks {
			if math.Float64bits(ticks[j]) != math.Float64bits(b.ticks[j]) {
				t.Errorf("frame %d tick %d: %g, want %g", i, j, ticks[j], b.ticks[j])
			}
		}
		if want := int64(headerSize + len(b.id) + 8*len(b.ticks) + trailerSize); dec.FrameBytes() != want {
			t.Errorf("frame %d: FrameBytes %d, want %d", i, dec.FrameBytes(), want)
		}
	}
	if _, _, err := dec.ReadFrame(); err != io.EOF {
		t.Errorf("after last frame: %v, want io.EOF", err)
	}
}

func TestEncodeRejectsLongID(t *testing.T) {
	if _, err := AppendFrame(nil, strings.Repeat("x", MaxIDLen+1), nil); !errors.Is(err, ErrIDTooLong) {
		t.Errorf("got %v, want ErrIDTooLong", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := frame(t, "s", []float64{1, 2, 3})

	corrupt := func(mutate func([]byte)) []byte {
		b := append([]byte(nil), valid...)
		mutate(b)
		return b
	}
	huge := frame(t, "s", make([]float64, 100))

	cases := []struct {
		name     string
		input    []byte
		maxTicks int
		want     error
	}{
		{"bad magic", corrupt(func(b []byte) { b[0] ^= 0xff }), 0, ErrBadMagic},
		{"bad version", corrupt(func(b []byte) {
			b[4] = 99
			binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
		}), 0, ErrBadVersion},
		{"oversized count", huge, 99, ErrFrameTooLarge},
		{"flipped payload bit", corrupt(func(b []byte) { b[12] ^= 0x01 }), 0, ErrChecksum},
		{"flipped crc bit", corrupt(func(b []byte) { b[len(b)-1] ^= 0x01 }), 0, ErrChecksum},
		{"truncated header", valid[:headerSize-2], 0, ErrTruncated},
		{"truncated body", valid[:len(valid)-3], 0, ErrTruncated},
		{"nan tick", func() []byte {
			b, err := AppendFrame(nil, "s", []float64{1, math.NaN()})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}(), 0, ErrNonFinite},
		{"inf tick", func() []byte {
			b, err := AppendFrame(nil, "s", []float64{math.Inf(-1)})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}(), 0, ErrNonFinite},
	}
	for _, tc := range cases {
		_, _, err := NewDecoder(bytes.NewReader(tc.input), tc.maxTicks).ReadFrame()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	// The count cap must refuse the frame before reading the payload:
	// a declared count far beyond the actual bytes fails as too-large,
	// not by attempting a giant read.
	lying := corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[6:10], 1<<31-1) })
	if _, _, err := NewDecoder(bytes.NewReader(lying), 1<<20).ReadFrame(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("length-prefix lie: got %v, want ErrFrameTooLarge", err)
	}
}

// TestDecoderReset: a pooled decoder reused across connections keeps
// its buffers but reads the new source cleanly.
func TestDecoderReset(t *testing.T) {
	dec := NewDecoder(bytes.NewReader(frame(t, "a", []float64{1, 2})), 0)
	if _, _, err := dec.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	dec.Reset(bytes.NewReader(frame(t, "b", []float64{3})))
	id, ticks, err := dec.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if id != "b" || len(ticks) != 1 || ticks[0] != 3 {
		t.Errorf("after Reset: id=%q ticks=%v", id, ticks)
	}
}

// TestDecodeZeroAlloc is the acceptance gate for the decode hot path:
// once the decoder's buffers are warm, ReadFrame allocates nothing per
// frame — the frame staging buffer, the ticks slice and the interned
// stream ids are all reused, also while a session rotates through
// several streams' ids.
func TestDecodeZeroAlloc(t *testing.T) {
	payload := append(frame(t, "hot-a", make([]float64, 512)), frame(t, "hot-b", make([]float64, 512))...)
	var stream bytes.Buffer
	dec := NewDecoder(&stream, 0)
	warm := func() {
		stream.Write(payload)
		for _, want := range []string{"hot-a", "hot-b"} {
			if id, _, err := dec.ReadFrame(); err != nil || id != want {
				t.Fatalf("ReadFrame = %q, %v; want %q", id, err, want)
			}
		}
	}
	warm()
	if allocs := testing.AllocsPerRun(100, warm); allocs != 0 {
		t.Errorf("warm ReadFrame allocates %.1f times per two frames, want 0", allocs)
	}
}

// TestDecoderInternBounded: a session rotating through more ids than
// the intern table holds still gets every id right, and the table
// never grows past its bound.
func TestDecoderInternBounded(t *testing.T) {
	var body []byte
	ids := make([]string, maxIDs+maxIDs/2)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%d", i)
		body = append(body, frame(t, ids[i], []float64{float64(i)})...)
	}
	dec := NewDecoder(bytes.NewReader(append(body, body...)), 0)
	for round := 0; round < 2; round++ {
		for _, want := range ids {
			id, _, err := dec.ReadFrame()
			if err != nil || id != want {
				t.Fatalf("round %d: ReadFrame = %q, %v; want %q", round, id, err, want)
			}
			if len(dec.ids) > maxIDs {
				t.Fatalf("intern table holds %d ids, bound %d", len(dec.ids), maxIDs)
			}
		}
	}
}

// readCounter counts the Reads that reach its source.
type readCounter struct {
	r     io.Reader
	reads int
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestBufferThenDecode: Buffer reads the whole next frame, the
// ReadFrame after it reads nothing more from the source, and Buffer
// reports the errors ReadFrame would.
func TestBufferThenDecode(t *testing.T) {
	f := frame(t, "a", []float64{1, 2, 3})
	src := &readCounter{r: iotest.OneByteReader(bytes.NewReader(f))}
	dec := NewDecoder(src, 0)
	if err := dec.Buffer(); err != nil {
		t.Fatal(err)
	}
	if err := dec.Buffer(); err != nil { // idempotent while the frame waits
		t.Fatal(err)
	}
	reads := src.reads
	if reads < len(f) {
		t.Fatalf("Buffer returned after %d one-byte reads of a %d-byte frame", reads, len(f))
	}
	id, ticks, err := dec.ReadFrame()
	if err != nil || id != "a" || len(ticks) != 3 || ticks[2] != 3 {
		t.Fatalf("ReadFrame = %q %v %v", id, ticks, err)
	}
	if src.reads != reads {
		t.Errorf("ReadFrame after Buffer read the source %d more times", src.reads-reads)
	}
	if err := dec.Buffer(); err != io.EOF {
		t.Errorf("Buffer at a clean end = %v, want io.EOF", err)
	}
	dec.Reset(bytes.NewReader(f[:len(f)-1]))
	if err := dec.Buffer(); !errors.Is(err, ErrTruncated) {
		t.Errorf("Buffer of a truncated frame = %v, want ErrTruncated", err)
	}
	dec.Reset(bytes.NewReader(frame(t, "a", make([]float64, 8))))
	dec.maxTicks = 4
	if err := dec.Buffer(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("Buffer of an oversized frame = %v, want ErrFrameTooLarge", err)
	}
}

// BenchmarkDecodeFrame times the pure decode step — the per-frame cost
// the binary ingest handler pays on top of OfferBatch. frame feeds one
// 512-tick frame per read, as a single-frame POST arrives; session
// decodes a body of 128 such frames from one reader, the shape of a
// streaming session, so reading ahead across frames counts.
func BenchmarkDecodeFrame(b *testing.B) {
	ticks := make([]float64, 512)
	for i := range ticks {
		ticks[i] = float64(i) * 1.5
	}
	payload := frame(b, "hot-stream", ticks)

	b.Run("frame", func(b *testing.B) {
		var stream bytes.Buffer
		dec := NewDecoder(&stream, 0)
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stream.Write(payload)
			if _, _, err := dec.ReadFrame(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("session", func(b *testing.B) {
		const frames = 128
		body := bytes.Repeat(payload, frames)
		r := bytes.NewReader(body)
		dec := NewDecoder(r, 0)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Reset(body)
			dec.Reset(r)
			for f := 0; f < frames; f++ {
				if _, _, err := dec.ReadFrame(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkEncodeFrame is the client-side counterpart.
func BenchmarkEncodeFrame(b *testing.B) {
	ticks := make([]float64, 512)
	for i := range ticks {
		ticks[i] = float64(i) * 1.5
	}
	enc := NewEncoder(io.Discard)
	b.SetBytes(int64(headerSize + 10 + 8*len(ticks) + trailerSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode("hot-stream", ticks); err != nil {
			b.Fatal(err)
		}
	}
}
