// Package trace provides the on-disk format of the reproduction's
// binned rate series: a checksummed header, the granularity, then one
// fixed-width record per bin. The reader validates the header and fails
// loudly on corruption rather than returning truncated data.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// The magic number identifying a series file, and its format version.
const (
	seriesMagic = 0x53545243 // "STRC"
	version     = 1
)

// WriteSeries serializes a rate series with its granularity (seconds per
// bin).
func WriteSeries(w io.Writer, granularity float64, f []float64) error {
	if granularity <= 0 {
		return fmt.Errorf("trace: granularity %g must be positive", granularity)
	}
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, seriesMagic, uint64(len(f))); err != nil {
		return err
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(granularity))
	if _, err := bw.Write(buf[:]); err != nil {
		return fmt.Errorf("trace: writing granularity: %w", err)
	}
	for i, v := range f {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		if _, err := bw.Write(buf[:]); err != nil {
			return fmt.Errorf("trace: writing bin %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flushing series: %w", err)
	}
	return nil
}

// ReadSeries deserializes a rate series written by WriteSeries.
func ReadSeries(r io.Reader) (granularity float64, f []float64, err error) {
	br := bufio.NewReader(r)
	count, err := readHeader(br, seriesMagic)
	if err != nil {
		return 0, nil, err
	}
	if count > 1<<31 {
		return 0, nil, fmt.Errorf("trace: implausible series length %d", count)
	}
	var buf [8]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return 0, nil, fmt.Errorf("trace: reading granularity: %w", err)
	}
	granularity = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	if granularity <= 0 || math.IsNaN(granularity) || math.IsInf(granularity, 1) {
		return 0, nil, fmt.Errorf("trace: invalid granularity %g in header", granularity)
	}
	// Capacity is capped rather than trusted: a header can carry any
	// CRC-consistent count, and allocating gigabytes before the first
	// record is read would let a 20-byte input exhaust memory.
	f = make([]float64, 0, min(count, 1<<16))
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, nil, fmt.Errorf("trace: reading bin %d of %d: %w", i, count, err)
		}
		f = append(f, math.Float64frombits(binary.LittleEndian.Uint64(buf[:])))
	}
	return granularity, f, nil
}

// writeHeader emits magic, version, count and a CRC of those fields.
func writeHeader(w io.Writer, magic uint32, count uint64) error {
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint32(hdr[4:8], version)
	binary.LittleEndian.PutUint64(hdr[8:16], count)
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(hdr[0:16]))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	return nil
}

// readHeader validates magic, version and CRC, returning the record count.
func readHeader(r io.Reader, wantMagic uint32) (uint64, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("trace: reading header: %w", err)
	}
	if got := crc32.ChecksumIEEE(hdr[0:16]); got != binary.LittleEndian.Uint32(hdr[16:20]) {
		return 0, fmt.Errorf("trace: header checksum mismatch (corrupt file?)")
	}
	if magic := binary.LittleEndian.Uint32(hdr[0:4]); magic != wantMagic {
		return 0, fmt.Errorf("trace: bad magic 0x%08x (want 0x%08x)", magic, wantMagic)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != version {
		return 0, fmt.Errorf("trace: unsupported format version %d", v)
	}
	return binary.LittleEndian.Uint64(hdr[8:16]), nil
}
