package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"
)

// header builds an arbitrary (magic, version, count) header with a
// consistent CRC — the seeds must get the fuzzer past the checksum so
// it spends its budget on the interesting validation paths.
func header(magic, version uint32, count uint64) []byte {
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint32(hdr[4:8], version)
	binary.LittleEndian.PutUint64(hdr[8:16], count)
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(hdr[0:16]))
	return hdr[:]
}

// FuzzReadSeries asserts the series reader's contract on adversarial
// input: it must never panic or over-allocate, it must refuse an
// invalid granularity, and anything it accepts must survive a
// write/read round trip bit-for-bit.
func FuzzReadSeries(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteSeries(&valid, 0.1, []float64{1, 2.5, 0, 1e9}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add(valid.Bytes()[:21]) // truncated mid-granularity

	corrupt := append([]byte(nil), valid.Bytes()...)
	corrupt[16] ^= 0x01 // break the header CRC
	f.Add(corrupt)

	nanGran := append([]byte(nil), header(seriesMagic, 1, 1)...)
	nanGran = binary.LittleEndian.AppendUint64(nanGran, math.Float64bits(math.NaN()))
	nanGran = binary.LittleEndian.AppendUint64(nanGran, math.Float64bits(1.0))
	f.Add(nanGran) // NaN granularity, valid CRC

	negGran := append([]byte(nil), header(seriesMagic, 1, 1)...)
	negGran = binary.LittleEndian.AppendUint64(negGran, math.Float64bits(-2.0))
	negGran = binary.LittleEndian.AppendUint64(negGran, math.Float64bits(1.0))
	f.Add(negGran)

	infGran := append([]byte(nil), header(seriesMagic, 1, 1)...)
	infGran = binary.LittleEndian.AppendUint64(infGran, math.Float64bits(math.Inf(1)))
	infGran = binary.LittleEndian.AppendUint64(infGran, math.Float64bits(1.0))
	f.Add(infGran) // +Inf granularity, valid CRC

	f.Add(header(seriesMagic, 1, 1<<30)) // huge count, no body
	f.Add(header(seriesMagic+1, 1, 0))   // a foreign magic

	f.Fuzz(func(t *testing.T, data []byte) {
		gran, series, err := ReadSeries(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !(gran > 0) || math.IsNaN(gran) || math.IsInf(gran, 0) {
			t.Fatalf("accepted invalid granularity %g", gran)
		}
		var out bytes.Buffer
		if err := WriteSeries(&out, gran, series); err != nil {
			t.Fatalf("accepted series failed to re-encode: %v", err)
		}
		gran2, back, err := ReadSeries(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded series failed to read: %v", err)
		}
		if math.Float64bits(gran2) != math.Float64bits(gran) || len(back) != len(series) {
			t.Fatalf("round trip changed shape: gran %g->%g, len %d->%d", gran, gran2, len(series), len(back))
		}
		for i := range series {
			if math.Float64bits(back[i]) != math.Float64bits(series[i]) {
				t.Fatalf("bin %d changed in round trip: %g -> %g", i, series[i], back[i])
			}
		}
	})
}
