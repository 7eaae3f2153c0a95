// Package wire is the binary tick-batch frame codec of the sampling
// service — the wire format that closes the gap between HTTP ingest
// and in-process OfferBatch. JSON and whitespace text pay a parse per
// tick; a tick-batch frame is decoded straight into the []float64
// handed to the engine, with no per-tick branching beyond a finiteness
// check and no allocations once the decoder's buffers are warm.
//
// # Frame layout
//
// One frame carries one batch of ticks for one stream, little-endian
// throughout:
//
//	offset  size      field
//	0       4         magic 0x6b636954 (the bytes "Tick")
//	4       1         version (currently 1)
//	5       1         idLen — length of the stream id in bytes
//	6       4         count — ticks in the payload (uint32)
//	10      idLen     stream id (UTF-8; may be empty when the URL names the stream)
//	10+idLen count*8  payload: count IEEE-754 float64 ticks
//	...     4         CRC-32 (IEEE) over everything above
//
// The count field is the frame-declared batch size: a decoder checks
// it against its cap before waiting for (or allocating for) the
// payload, so a malformed or hostile length prefix cannot balloon
// memory. The trailing CRC covers header, id and payload; a flipped
// bit anywhere is an ErrChecksum, not a corrupted stream.
//
// Frames are self-delimiting, so a connection can carry any number of
// them back to back — the sampled daemon accepts a body of frames on
// POST /v1/streams/{id}/ticks (Content-Type application/x-tickbatch)
// and a long-lived stream of them on POST /v1/session, where each
// frame's embedded id routes it.
//
// # Reuse
//
// Encoder and Decoder both own their buffers and reuse them across
// frames. A Decoder reads through one read-ahead window: each Read
// takes whatever the source has queued, so a body of many frames costs
// a few reads, not one or two per frame. The window starts at 4 KiB,
// grows to fit the frame in hand and widens up to 64 KiB only while
// reads keep coming back full. ReadFrame never waits for more than the
// frame in hand, so a live session gets each frame as it arrives; it
// checks the CRC over the frame in place and decodes the payload in
// one pass into the decoder's tick buffer. The ticks slice it returns
// is valid only until the next call. Embedded ids are interned in a
// bounded table, so a session rotating through its streams' ids
// decodes them without allocating. Both are single-goroutine objects
// — pool them (sync.Pool plus Reset) rather than sharing one across
// connections; Reset discards whatever the previous source left in the
// window.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// ContentType is the MIME type announcing a body of tick-batch frames.
const ContentType = "application/x-tickbatch"

const (
	// Magic opens every frame: the bytes "Tick" read as a little-endian
	// uint32.
	Magic = 0x6b636954
	// Version is the current frame version; decoders reject others.
	Version = 1
	// MaxIDLen caps the embedded stream id (the idLen field is a byte).
	MaxIDLen = 255
	// DefaultMaxTicks is the decoder's frame-declared batch cap when the
	// caller does not set one: 2^21 ticks, a 16 MiB payload.
	DefaultMaxTicks = 1 << 21

	headerSize  = 10
	trailerSize = 4
)

// The typed failure modes of frame decoding; branch with errors.Is.
// ErrFrameTooLarge is the retryable one — split the batch — and maps to
// HTTP 413 in the sampled daemon; the rest are corruption (400).
var (
	// ErrBadMagic is wrapped when a frame does not open with Magic.
	ErrBadMagic = errors.New("bad frame magic")
	// ErrBadVersion is wrapped when the frame version is unknown.
	ErrBadVersion = errors.New("unsupported frame version")
	// ErrFrameTooLarge is wrapped when the declared count exceeds the
	// decoder's cap.
	ErrFrameTooLarge = errors.New("frame exceeds tick cap")
	// ErrChecksum is wrapped when the trailing CRC does not match.
	ErrChecksum = errors.New("frame checksum mismatch")
	// ErrTruncated is wrapped when the input ends mid-frame.
	ErrTruncated = errors.New("truncated frame")
	// ErrNonFinite is wrapped when the payload carries NaN or ±Inf —
	// one such tick would poison a stream's running moments for life,
	// exactly as on the JSON and text wires.
	ErrNonFinite = errors.New("non-finite tick value")
	// ErrIDTooLong is returned by encoders for stream ids over MaxIDLen.
	ErrIDTooLong = errors.New("stream id too long")
)

// AppendFrame appends one encoded frame to dst and returns the extended
// slice — the allocation-free primitive under Encoder. The id may be
// empty when the transport names the stream (the single-stream POST
// path); ids longer than MaxIDLen fail with ErrIDTooLong.
//
//samplelint:hotpath
func AppendFrame(dst []byte, id string, ticks []float64) ([]byte, error) {
	if len(id) > MaxIDLen {
		return dst, fmt.Errorf("wire: id %q is %d bytes: %w", id, len(id), ErrIDTooLong)
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, Magic)
	dst = append(dst, Version, byte(len(id)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ticks)))
	dst = append(dst, id...)
	for _, v := range ticks {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, crc), nil
}

// Encoder writes frames to one destination, reusing a single staging
// buffer across calls. Not safe for concurrent use; give each
// connection its own.
type Encoder struct {
	w   io.Writer
	buf []byte
}

// NewEncoder builds an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Encode writes one frame. The ticks slice is not retained.
//
//samplelint:hotpath
func (e *Encoder) Encode(id string, ticks []float64) error {
	buf, err := AppendFrame(e.buf[:0], id, ticks)
	e.buf = buf
	if err != nil {
		return err
	}
	_, err = e.w.Write(buf)
	return err
}

// Decoder reads frames from one source through a read-ahead window: each
// Read takes as much as the source has queued, and frames are checked
// and decoded in place from the window. After the first few frames the
// read path allocates nothing. Not safe for concurrent use; pool
// decoders and Reset them per connection.
type Decoder struct {
	r        io.Reader
	maxTicks int
	buf      []byte            // read-ahead window; buf[off:end] is read but not yet decoded
	off, end int               // unread bytes of buf
	win      int               // size the window takes when it next has to move or grow
	rerr     error             // sticky read error, surfaced only when a frame needs bytes past end
	ticks    []float64         // decoded payload, reused across frames
	ids      map[string]string // interned ids, cleared when it reaches maxIDs
	frameLen int64
}

const (
	// minWindow is a fresh decoder's read-ahead window.
	minWindow = 4 << 10
	// maxWindow caps how far the window widens while reads keep coming
	// back full. A one-frame body leaves the window near the frame's
	// own size (8 KiB for 512 ticks), so a pool of decoders serving
	// single-frame POSTs stays small.
	maxWindow = 64 << 10
	// expBits is the float64 exponent field: all ones exactly for NaN
	// and ±Inf.
	expBits = 0x7ff0000000000000
	// maxIDs bounds a decoder's id table. A session rotating through
	// up to this many ids decodes them without allocating; one that
	// rotates through more starts the table over each time it fills.
	maxIDs = 1024
)

// NewDecoder builds a decoder over r. maxTicks caps the frame-declared
// batch size (ticks per frame); zero or negative means DefaultMaxTicks.
func NewDecoder(r io.Reader, maxTicks int) *Decoder {
	if maxTicks <= 0 {
		maxTicks = DefaultMaxTicks
	}
	return &Decoder{r: r, maxTicks: maxTicks, win: minWindow, ids: make(map[string]string)}
}

// Reset points the decoder at a new source, keeping its buffers, id
// table and cap — the pooling hook. Bytes or an error the previous
// source left in the window are discarded.
func (d *Decoder) Reset(r io.Reader) {
	d.r = r
	d.off, d.end = 0, 0
	d.rerr = nil
	d.frameLen = 0
}

// FrameBytes reports the encoded size of the last frame ReadFrame
// returned — what a server adds to its ingest-bytes counter.
func (d *Decoder) FrameBytes() int64 { return d.frameLen }

// fill makes at least n unread bytes available in buf[off:end]. It
// returns as soon as they are there, never waiting to fill the window:
// on a live session the next frame may not have been sent yet. A read
// error is kept and returned once the bytes before it run out.
func (d *Decoder) fill(n int) error {
	if d.end-d.off >= n {
		return nil
	}
	// Move the unread bytes to the front, so the read can take a whole
	// window, into a wider buffer if the window has grown or the frame
	// needs one. What moves is less than one frame.
	buf := d.buf
	if size := max(d.win, n); size > len(buf) {
		buf = make([]byte, size)
	}
	d.end = copy(buf, d.buf[d.off:d.end])
	d.off = 0
	d.buf = buf
	for d.end < n {
		if d.rerr != nil {
			return d.rerr
		}
		k, err := d.r.Read(d.buf[d.end:])
		if k == len(d.buf)-d.end && d.win < maxWindow {
			d.win *= 2 // the source had at least a window queued
		}
		d.end += k
		d.rerr = err
	}
	return nil
}

// Buffer reads until the next whole frame is in the decoder's window,
// checking its header on the way, and returns the error ReadFrame would
// return for a frame that cannot be buffered: io.EOF at a clean end of
// input, ErrTruncated, ErrBadMagic, ErrBadVersion or ErrFrameTooLarge.
// After a nil Buffer the next ReadFrame only decodes, without reading
// from the source, so a caller can time the decode apart from the wait
// for the sender. Calling Buffer is optional; ReadFrame buffers for
// itself.
func (d *Decoder) Buffer() error {
	_, _, err := d.buffer()
	return err
}

// buffer makes the next whole frame available at buf[off:] and returns
// its id length and tick count. The declared count gates every
// allocation: an adversarial length prefix is refused before the
// window grows to hold it.
func (d *Decoder) buffer() (idLen, count int, err error) {
	if err := d.fill(headerSize); err != nil {
		if err == io.EOF {
			if d.off == d.end {
				return 0, 0, io.EOF
			}
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, fmt.Errorf("wire: header: %w (%w)", err, ErrTruncated)
	}
	hdr := d.buf[d.off : d.off+headerSize]
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != Magic {
		return 0, 0, fmt.Errorf("wire: magic %#x: %w", m, ErrBadMagic)
	}
	if v := hdr[4]; v != Version {
		return 0, 0, fmt.Errorf("wire: version %d (want %d): %w", v, Version, ErrBadVersion)
	}
	idLen = int(hdr[5])
	count = int(binary.LittleEndian.Uint32(hdr[6:10]))
	if count > d.maxTicks {
		return 0, 0, fmt.Errorf("wire: frame declares %d ticks (cap %d): %w", count, d.maxTicks, ErrFrameTooLarge)
	}
	if err := d.fill(headerSize + idLen + count*8 + trailerSize); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, fmt.Errorf("wire: body: %w (%w)", err, ErrTruncated)
	}
	return idLen, count, nil
}

// ReadFrame decodes the next frame: the embedded stream id (empty when
// the frame carries none) and the tick payload. The ticks slice is
// owned by the decoder and valid only until the next call — hand it to
// OfferBatch, which does not retain it, and move on. A clean end of
// input at a frame boundary is io.EOF; an end mid-frame is
// ErrTruncated.
//
//samplelint:hotpath
func (d *Decoder) ReadFrame() (id string, ticks []float64, err error) {
	idLen, count, err := d.buffer()
	if err != nil {
		return "", nil, err
	}
	body := headerSize + idLen + count*8
	n := body + trailerSize
	frame := d.buf[d.off : d.off+n]
	d.off += n
	crc := crc32.ChecksumIEEE(frame[:body])
	if want := binary.LittleEndian.Uint32(frame[body:]); crc != want {
		return "", nil, fmt.Errorf("wire: got crc %#x, frame says %#x: %w", crc, want, ErrChecksum)
	}
	if cap(d.ticks) < count {
		d.ticks = make([]float64, count)
	}
	ticks = d.ticks[:count]
	if i := decodeTicks(ticks, frame[headerSize+idLen:body]); i < count {
		v := math.Float64frombits(binary.LittleEndian.Uint64(frame[headerSize+idLen+8*i:]))
		return "", nil, fmt.Errorf("wire: tick %d is %v: %w", i, v, ErrNonFinite)
	}
	d.frameLen = int64(n)
	return d.intern(frame[headerSize : headerSize+idLen]), ticks, nil
}

// intern returns b as a string, allocating only for an id the table
// does not hold yet: a session rotates through the same few ids frame
// after frame, and m[string(b)] looks them up without a copy.
func (d *Decoder) intern(b []byte) string {
	if id, ok := d.ids[string(b)]; ok {
		return id
	}
	if len(d.ids) >= maxIDs {
		clear(d.ids)
	}
	id := string(b)
	d.ids[id] = id
	return id
}

// decodeTicks decodes len(dst) little-endian float64s from src into dst
// and returns the index of the first NaN or ±Inf, or len(dst) when all
// are finite. Four ticks per iteration share one bounds check, and each
// tick's finiteness test is one mask on its raw bits.
//
//samplelint:hotpath
func decodeTicks(dst []float64, src []byte) int {
	n := len(dst)
	src = src[:8*n]
	for len(dst) >= 4 && len(src) >= 32 {
		u0 := binary.LittleEndian.Uint64(src[0:8])
		u1 := binary.LittleEndian.Uint64(src[8:16])
		u2 := binary.LittleEndian.Uint64(src[16:24])
		u3 := binary.LittleEndian.Uint64(src[24:32])
		if u0&expBits == expBits || u1&expBits == expBits || u2&expBits == expBits || u3&expBits == expBits {
			break // the scalar loop finds which lane
		}
		dst[0] = math.Float64frombits(u0)
		dst[1] = math.Float64frombits(u1)
		dst[2] = math.Float64frombits(u2)
		dst[3] = math.Float64frombits(u3)
		dst, src = dst[4:], src[32:]
	}
	for i := range dst {
		u := binary.LittleEndian.Uint64(src[8*i:])
		if u&expBits == expBits {
			return n - len(dst) + i
		}
		dst[i] = math.Float64frombits(u)
	}
	return n
}
