// Package binenc holds the little-endian binary primitives shared by
// the repository's state codecs (engine snapshots, checkpoint files).
// It deliberately mirrors the conventions of the tick wire format in
// sampling/wire — little-endian fixed-width integers, float64 as raw
// IEEE-754 bits, u32-length-prefixed byte strings — so a reader fluent
// in one codec can read the other.
//
// The Reader latches its first error: once a read fails (truncation, an
// oversized length prefix) every later read returns the zero value and
// Err keeps reporting the original failure, so decode loops can run
// unchecked and validate once at the end. Length prefixes are validated
// against the bytes actually remaining before any allocation, so a
// corrupt or hostile count cannot force a large allocation.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated is wrapped by Reader errors when the buffer ends before
// the value it should hold.
var ErrTruncated = errors.New("binenc: truncated input")

// AppendU8 appends one byte.
func AppendU8(dst []byte, v uint8) []byte { return append(dst, v) }

// AppendU32 appends a little-endian uint32.
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

// AppendU64 appends a little-endian uint64.
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendI64 appends a little-endian two's-complement int64.
func AppendI64(dst []byte, v int64) []byte { return AppendU64(dst, uint64(v)) }

// AppendF64 appends a float64 as its raw IEEE-754 bits, little-endian.
func AppendF64(dst []byte, v float64) []byte { return AppendU64(dst, math.Float64bits(v)) }

// AppendBool appends a bool as one byte (0 or 1).
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendBytes appends a u32 length prefix followed by the bytes.
func AppendBytes(dst, b []byte) []byte {
	dst = AppendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

// AppendString appends a u32 length prefix followed by the string bytes.
func AppendString(dst []byte, s string) []byte {
	dst = AppendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// ReserveLen appends a zero u32 length prefix and returns the extended
// slice with the prefix's offset. The caller appends the prefixed bytes
// in place and then calls PatchLen; the result is byte-identical to
// AppendBytes over the same bytes, without building them apart first.
func ReserveLen(dst []byte) ([]byte, int) {
	return AppendU32(dst, 0), len(dst)
}

// PatchLen sets the length prefix ReserveLen wrote at offset at to the
// number of bytes appended after it.
func PatchLen(b []byte, at int) {
	binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-at-4))
}

// AppendF64s appends a u32 count followed by the raw float64 bits of
// each element.
func AppendF64s(dst []byte, xs []float64) []byte {
	dst = AppendU32(dst, uint32(len(xs)))
	for _, v := range xs {
		dst = AppendF64(dst, v)
	}
	return dst
}

// Reader decodes values written by the Append functions, in order,
// latching the first error.
type Reader struct {
	buf []byte
	err error
}

// NewReader wraps a buffer. The Reader reads views into it; the caller
// must not mutate the buffer while decoding.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns how many undecoded bytes are left.
func (r *Reader) Remaining() int { return len(r.buf) }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.fail(fmt.Errorf("binenc: need %d bytes for %s, have %d: %w", n, what, len(r.buf), ErrTruncated))
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian two's-complement int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64 from its raw IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads one byte as a bool; any byte other than 0 or 1 is an error.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(errors.New("binenc: bool byte outside {0,1}"))
		return false
	}
}

// Bytes reads a u32-length-prefixed byte string and returns a view into
// the underlying buffer. The length is validated against the remaining
// bytes before use.
func (r *Reader) Bytes() []byte {
	n := int(r.U32())
	return r.take(n, "length-prefixed bytes")
}

// Raw reads n bytes with no prefix and returns a view into the
// underlying buffer, for callers that decode a fixed-size array of
// records in one bounded pass.
func (r *Reader) Raw(n int) []byte { return r.take(n, "raw bytes") }

// String reads a u32-length-prefixed string (copying out of the buffer).
func (r *Reader) String() string { return string(r.Bytes()) }

// F64s reads a u32-count-prefixed float64 slice. The count is validated
// against the remaining bytes before the slice is allocated.
func (r *Reader) F64s() []float64 {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	if len(r.buf) < 8*n {
		r.fail(fmt.Errorf("binenc: need %d bytes for %d float64s, have %d: %w", 8*n, n, len(r.buf), ErrTruncated))
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}
