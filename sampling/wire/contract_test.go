package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// The decoder contract: how a body arrives — one read, one byte at a
// time, in random chunks, with the final error riding on the last data
// — never changes what it decodes to, and a body cut short anywhere is
// ErrTruncated unless the cut falls on a frame boundary.

// decoded is one frame as ReadFrame returned it, copied out of the
// decoder's buffers.
type decoded struct {
	id    string
	ticks []uint64 // raw bits, so -0 and every finite pattern compare exactly
	size  int64
}

// decodeAll reads frames until the first error and returns them with
// that error (io.EOF for a clean end).
func decodeAll(r io.Reader, maxTicks int) ([]decoded, error) {
	dec := NewDecoder(r, maxTicks)
	var out []decoded
	for {
		id, ticks, err := dec.ReadFrame()
		if err != nil {
			return out, err
		}
		bits := make([]uint64, len(ticks))
		for i, v := range ticks {
			bits[i] = math.Float64bits(v)
		}
		out = append(out, decoded{id, bits, dec.FrameBytes()})
	}
}

// sameDecode fails t unless two decodes returned the same frames and
// the same final error.
func sameDecode(t *testing.T, name string, got []decoded, gotErr error, want []decoded, wantErr error) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d (err %v, want %v)", name, len(got), len(want), gotErr, wantErr)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.id != w.id || g.size != w.size || len(g.ticks) != len(w.ticks) {
			t.Fatalf("%s: frame %d is (%q, %d ticks, %d bytes), want (%q, %d ticks, %d bytes)",
				name, i, g.id, len(g.ticks), g.size, w.id, len(w.ticks), w.size)
		}
		for j := range w.ticks {
			if g.ticks[j] != w.ticks[j] {
				t.Fatalf("%s: frame %d tick %d is %#x, want %#x", name, i, j, g.ticks[j], w.ticks[j])
			}
		}
	}
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: ended with %v, want %v", name, gotErr, wantErr)
	}
}

// chunkReader hands out its input in seeded random chunks of 1 to max
// bytes, whatever the caller asks for.
type chunkReader struct {
	r   io.Reader
	rng *rand.Rand
	max int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if n := 1 + c.rng.IntN(c.max); len(p) > n {
		p = p[:n]
	}
	return c.r.Read(p)
}

// contractBody is a multi-frame body mixing named and anonymous frames,
// zero-tick frames, a one-tick frame, four-lane remainders of every
// size and one frame larger than the decoder's widest read-ahead
// window, with finite edge values (±0, subnormals, ±MaxFloat64) that a
// finiteness mask must let through.
func contractBody(t testing.TB) ([]byte, []int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(1, 2))
	edges := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, 1}
	shapes := []struct {
		id    string
		count int
	}{
		{"link0", 5}, {"", 0}, {"link0", 512}, {"", 1}, {"b", 0},
		{strings.Repeat("x", MaxIDLen), 7}, {"", 9000}, {"link1", 6}, {"", 512}, {"link1", 4},
	}
	var body []byte
	var bounds []int
	for _, s := range shapes {
		ticks := make([]float64, s.count)
		for i := range ticks {
			ticks[i] = rng.NormFloat64() * 1e3
			if rng.IntN(8) == 0 {
				ticks[i] = edges[rng.IntN(len(edges))]
			}
		}
		body = append(body, frame(t, s.id, ticks)...)
		bounds = append(bounds, len(body))
	}
	if len(body) <= 64<<10 {
		t.Fatalf("contract body is %d bytes; it must outgrow a 64 KiB read", len(body))
	}
	return body, bounds
}

// TestDecoderChunking: any way of splitting a body into reads decodes
// to exactly what one whole-buffer read does, whole bodies and bodies
// cut short mid-frame alike.
func TestDecoderChunking(t *testing.T) {
	body, bounds := contractBody(t)
	cuts := []int{len(body), bounds[2] - 3, bounds[6] - 100, headerSize / 2}
	for _, cut := range cuts {
		input := body[:cut]
		want, wantErr := decodeAll(bytes.NewReader(input), 0)
		readers := map[string]io.Reader{
			"one-byte": iotest.OneByteReader(bytes.NewReader(input)),
			"half":     iotest.HalfReader(bytes.NewReader(input)),
			"data-err": iotest.DataErrReader(bytes.NewReader(input)),
		}
		for seed := uint64(1); seed <= 8; seed++ {
			readers[fmt.Sprintf("random-%d", seed)] = &chunkReader{bytes.NewReader(input), rand.New(rand.NewPCG(seed, 0)), 1 + int(seed*seed*1000)}
		}
		for name, r := range readers {
			got, err := decodeAll(r, 0)
			sameDecode(t, fmt.Sprintf("cut %d, %s", cut, name), got, err, want, wantErr)
		}
	}
	got, err := decodeAll(bytes.NewReader(body), 0)
	if err != io.EOF || len(got) != len(bounds) {
		t.Fatalf("whole body: %d frames then %v, want %d then io.EOF", len(got), err, len(bounds))
	}
}

// TestDecoderTruncation: a body cut at any byte decodes every frame
// wholly before the cut and then ends in io.EOF at a frame boundary,
// ErrTruncated anywhere else.
func TestDecoderTruncation(t *testing.T) {
	var body []byte
	var bounds []int
	for _, f := range []struct {
		id    string
		count int
	}{{"a", 3}, {"", 0}, {"bb", 6}, {"", 1}} {
		ticks := make([]float64, f.count)
		for i := range ticks {
			ticks[i] = float64(i) + 0.5
		}
		body = append(body, frame(t, f.id, ticks)...)
		bounds = append(bounds, len(body))
	}
	for cut := 0; cut <= len(body); cut++ {
		whole := 0
		for whole < len(bounds) && bounds[whole] <= cut {
			whole++
		}
		atBoundary := cut == 0 || bounds[max(whole-1, 0)] == cut
		for name, r := range map[string]io.Reader{
			"whole":    bytes.NewReader(body[:cut]),
			"one-byte": iotest.OneByteReader(bytes.NewReader(body[:cut])),
		} {
			got, err := decodeAll(r, 0)
			if len(got) != whole {
				t.Fatalf("cut %d (%s): %d frames, want %d", cut, name, len(got), whole)
			}
			switch {
			case atBoundary && err != io.EOF:
				t.Fatalf("cut %d (%s) is a frame boundary: got %v, want io.EOF", cut, name, err)
			case !atBoundary && (err == io.EOF || !errors.Is(err, ErrTruncated)):
				t.Fatalf("cut %d (%s) is mid-frame: got %v, want ErrTruncated", cut, name, err)
			}
		}
	}
}

// TestDecodeNonFiniteIndex: a NaN or ±Inf in any lane of a four-tick
// group, or in the remainder after the last full group, is reported
// at its exact tick index.
func TestDecodeNonFiniteIndex(t *testing.T) {
	bad := []uint64{
		math.Float64bits(math.NaN()),
		math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)),
		0x7ff0000000000001, // signalling NaN
		0xfff8000000000000, // negative quiet NaN
	}
	for _, count := range []int{1, 3, 4, 8, 11} {
		for at := 0; at < count; at++ {
			for _, bits := range bad {
				ticks := make([]float64, count)
				for i := range ticks {
					ticks[i] = math.MaxFloat64 / float64(i+1)
				}
				ticks[at] = math.Float64frombits(bits)
				if at+1 < count {
					ticks[count-1] = math.Inf(1) // a later offender must not be the one reported
				}
				_, _, err := NewDecoder(bytes.NewReader(frame(t, "s", ticks)), 0).ReadFrame()
				if !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), fmt.Sprintf("tick %d is", at)) {
					t.Fatalf("%d ticks, %#x at %d: got %v, want ErrNonFinite at tick %d", count, bits, at, err, at)
				}
			}
		}
	}
}

// TestDecoderResetDiscardsBuffered: Reset forgets whatever the previous
// source left unread, and any error that source ended with.
func TestDecoderResetDiscardsBuffered(t *testing.T) {
	first := append(frame(t, "a", []float64{1}), frame(t, "stale", []float64{2, 3})...)
	dec := NewDecoder(bytes.NewReader(first), 0)
	if id, _, err := dec.ReadFrame(); err != nil || id != "a" {
		t.Fatalf("first frame: %q, %v", id, err)
	}
	dec.Reset(bytes.NewReader(frame(t, "b", []float64{4})))
	id, ticks, err := dec.ReadFrame()
	if err != nil || id != "b" || len(ticks) != 1 || ticks[0] != 4 {
		t.Fatalf("after Reset: id=%q ticks=%v err=%v, want b [4]", id, ticks, err)
	}
	if _, _, err := dec.ReadFrame(); err != io.EOF {
		t.Fatalf("after the new source's only frame: %v, want io.EOF", err)
	}

	broken := errors.New("connection reset")
	dec.Reset(iotest.ErrReader(broken))
	if _, _, err := dec.ReadFrame(); !errors.Is(err, broken) {
		t.Fatalf("broken source: %v, want %v", err, broken)
	}
	dec.Reset(bytes.NewReader(frame(t, "c", nil)))
	if id, _, err := dec.ReadFrame(); err != nil || id != "c" {
		t.Fatalf("after Reset from a broken source: %q, %v", id, err)
	}
}

// TestDecoderLiveness: on a live connection the decoder hands back
// each frame as soon as its last byte arrives — it never holds a frame
// back waiting for the next one to fill a read.
func TestDecoderLiveness(t *testing.T) {
	pr, pw := io.Pipe()
	defer pw.Close()
	counts := []int{512, 1, 0, 9000, 3, 512}
	got := make(chan error, len(counts))
	go func() {
		dec := NewDecoder(pr, 0)
		for range counts {
			_, _, err := dec.ReadFrame()
			got <- err
		}
	}()
	for k, n := range counts {
		if _, err := pw.Write(frame(t, "live", make([]float64, n))); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-got:
			if err != nil {
				t.Fatalf("frame %d: %v", k, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("frame %d not returned before frame %d was written", k, k+1)
		}
	}
}
