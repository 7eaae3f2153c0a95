package binenc

import (
	"errors"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendU8(b, 7)
	b = AppendU32(b, 0xdeadbeef)
	b = AppendU64(b, 1<<63|42)
	b = AppendI64(b, -12345)
	b = AppendF64(b, math.Pi)
	b = AppendF64(b, math.NaN())
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendString(b, "stream-id")
	b = AppendF64s(b, []float64{1.5, -2.5, math.Inf(1)})
	b = AppendF64s(b, nil)

	r := NewReader(b)
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 1<<63|42 {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.I64(); got != -12345 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsNaN(got) {
		t.Errorf("F64 NaN round-trip = %v", got)
	}
	if !r.Bool() || r.Bool() {
		t.Errorf("Bool round-trip broken")
	}
	if got := r.Bytes(); string(got) != "\x01\x02\x03" {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.String(); got != "stream-id" {
		t.Errorf("String = %q", got)
	}
	fs := r.F64s()
	if len(fs) != 3 || fs[0] != 1.5 || fs[1] != -2.5 || !math.IsInf(fs[2], 1) {
		t.Errorf("F64s = %v", fs)
	}
	if got := r.F64s(); got != nil {
		t.Errorf("empty F64s = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
}

func TestTruncationLatches(t *testing.T) {
	b := AppendU64(nil, 1)
	r := NewReader(b[:3])
	if got := r.U64(); got != 0 {
		t.Errorf("truncated U64 = %d, want 0", got)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Err = %v, want ErrTruncated", r.Err())
	}
	// Later reads stay zero and the original error is preserved.
	first := r.Err()
	if got := r.String(); got != "" {
		t.Errorf("read after error = %q", got)
	}
	if r.Err() != first { //nolint:errorlint // identity check is the point
		t.Errorf("error was overwritten: %v", r.Err())
	}
}

func TestOversizedLengthPrefixIsRejected(t *testing.T) {
	// A length prefix claiming 2^32-1 bytes must fail before allocating.
	b := AppendU32(nil, math.MaxUint32)
	r := NewReader(b)
	if got := r.Bytes(); got != nil {
		t.Errorf("oversized Bytes = %v", got)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Err = %v, want ErrTruncated", r.Err())
	}

	r = NewReader(AppendU32(nil, 1<<28))
	if got := r.F64s(); got != nil {
		t.Errorf("oversized F64s = %v", got)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("F64s Err = %v, want ErrTruncated", r.Err())
	}
}

func TestBadBoolByte(t *testing.T) {
	r := NewReader([]byte{2})
	if r.Bool() {
		t.Errorf("bad bool byte decoded as true")
	}
	if r.Err() == nil {
		t.Fatalf("bad bool byte accepted")
	}
}

// TestReserveLenMatchesAppendBytes: bytes appended in place behind a
// reserved prefix and patched afterwards equal AppendBytes over the
// same bytes, with or without a prefix already in the buffer.
func TestReserveLenMatchesAppendBytes(t *testing.T) {
	for _, payload := range [][]byte{nil, {9}, []byte("kernel-state")} {
		head := []byte{0xaa, 0xbb}
		want := AppendBytes(append([]byte(nil), head...), payload)
		got, at := ReserveLen(append([]byte(nil), head...))
		got = append(got, payload...)
		PatchLen(got, at)
		if string(got) != string(want) {
			t.Errorf("payload %q: reserved form % x, AppendBytes % x", payload, got, want)
		}
	}
}

func TestRawIsBounded(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if got := r.Raw(2); string(got) != "\x01\x02" {
		t.Fatalf("Raw(2) = % x", got)
	}
	if got := r.Raw(2); got != nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Raw past the end = % x, Err %v; want nil, ErrTruncated", got, r.Err())
	}
}
