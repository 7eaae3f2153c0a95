package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"math/rand/v2"
	"testing"
)

// fuzzHeader builds an arbitrary (magic, version, idLen, count) header
// with a consistent CRC where possible — the seeds must get the fuzzer
// past the checksum so it spends its budget on the validation paths
// behind it.
func fuzzHeader(magic uint32, version, idLen byte, count uint32) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	hdr[4] = version
	hdr[5] = idLen
	binary.LittleEndian.PutUint32(hdr[6:10], count)
	return hdr[:]
}

// sealed appends the IEEE CRC of everything so far — a structurally
// valid frame ending for whatever precedes it.
func sealed(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// FuzzDecodeFrame asserts the decoder's contract on adversarial input:
// it must never panic or allocate beyond its tick cap, and any frame it
// accepts must re-encode to the identical bytes — corruption is
// rejected loudly, never mangled into a plausible batch.
func FuzzDecodeFrame(f *testing.F) {
	valid, err := AppendFrame(nil, "link0", []float64{1, 2.5, -3, 1e300})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:headerSize-1])    // truncated mid-header
	f.Add(valid[:len(valid)-2])    // truncated mid-CRC
	f.Add(append(valid, valid...)) // two frames back to back

	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0xff // CRC mismatch
	f.Add(corrupt)

	f.Add(sealed(fuzzHeader(0xdeadbeef, Version, 0, 0)))     // wrong magic, valid CRC
	f.Add(sealed(fuzzHeader(Magic, 99, 0, 0)))               // wrong version, valid CRC
	f.Add(sealed(fuzzHeader(Magic, Version, 0, 0xffffffff))) // length-prefix overflow, valid CRC
	f.Add(fuzzHeader(Magic, Version, 0, 1<<20))              // huge count, no body at all
	f.Add(sealed(fuzzHeader(Magic, Version, 5, 0)))          // declares an id it does not carry

	nan := sealed(append(fuzzHeader(Magic, Version, 0, 1),
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))...))
	f.Add(nan) // NaN payload, valid CRC

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data), 1<<16)
		for {
			id, ticks, err := dec.ReadFrame()
			if err == io.EOF {
				return
			}
			if err != nil {
				return // rejected loudly: exactly the contract for corruption
			}
			for i, v := range ticks {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted non-finite tick %d: %v", i, v)
				}
			}
			out, err := AppendFrame(nil, id, ticks)
			if err != nil {
				t.Fatalf("accepted frame failed to re-encode: %v", err)
			}
			id2, ticks2, err := NewDecoder(bytes.NewReader(out), 1<<16).ReadFrame()
			if err != nil {
				t.Fatalf("re-encoded frame failed to decode: %v", err)
			}
			if id2 != id || len(ticks2) != len(ticks) {
				t.Fatalf("round trip changed shape: id %q->%q, len %d->%d", id, id2, len(ticks), len(ticks2))
			}
			for i := range ticks {
				if math.Float64bits(ticks2[i]) != math.Float64bits(ticks[i]) {
					t.Fatalf("tick %d changed in round trip: %g -> %g", i, ticks[i], ticks2[i])
				}
			}
		}
	})
}

// FuzzChunkedDecode is FuzzDecodeFrame's twin for the read path: the
// same input delivered in seeded random chunks must decode to exactly
// the frames, sizes and final error of one whole-buffer read.
func FuzzChunkedDecode(f *testing.F) {
	valid, err := AppendFrame(nil, "link0", []float64{1, 2.5, -3, 1e300})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, uint64(1))
	f.Add(append(valid, valid...), uint64(2))
	f.Add(append(valid, valid[:len(valid)-3]...), uint64(3))
	f.Add(append(valid, fuzzHeader(Magic, Version, 0, 1<<20)...), uint64(4))
	big, err := AppendFrame(nil, "", make([]float64, 9000))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(big, valid...), uint64(5))

	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		want, wantErr := decodeAll(bytes.NewReader(data), 1<<16)
		chunked := &chunkReader{bytes.NewReader(data), rand.New(rand.NewPCG(seed, seed>>32)), 1 + int(seed%(80<<10))}
		got, err := decodeAll(chunked, 1<<16)
		sameDecode(t, "chunked", got, err, want, wantErr)
	})
}
