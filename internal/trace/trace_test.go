package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/dist"
)

func TestReadSeriesCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSeries(&buf, 0.1, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Corrupt the magic: CRC must catch it.
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, _, err := ReadSeries(bytes.NewReader(bad)); err == nil {
		t.Error("expected error for corrupted header")
	}
	// Truncated body.
	if _, _, err := ReadSeries(bytes.NewReader(data[:len(data)-5])); err == nil {
		t.Error("expected error for truncated body")
	}
	// Wrong magic but valid CRC (some other file).
	var other bytes.Buffer
	if err := writeHeader(&other, seriesMagic+1, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSeries(&other); err == nil {
		t.Error("expected error for a foreign magic")
	}
	// Empty input.
	if _, _, err := ReadSeries(bytes.NewReader(nil)); err == nil {
		t.Error("expected error for empty input")
	}
}

func TestSeriesRoundTrip(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		rng := dist.NewRand(seed)
		f := make([]float64, int(nRaw)+1)
		for i := range f {
			f[i] = rng.NormFloat64() * 1e6
		}
		var buf bytes.Buffer
		if err := WriteSeries(&buf, 0.01, f); err != nil {
			return false
		}
		g, got, err := ReadSeries(&buf)
		if err != nil || g != 0.01 || len(got) != len(f) {
			return false
		}
		for i := range f {
			if got[i] != f[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSeriesErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSeries(&buf, 0, []float64{1}); err == nil {
		t.Error("expected error for zero granularity")
	}
	if err := WriteSeries(&buf, -0.5, []float64{1}); err == nil {
		t.Error("expected error for negative granularity")
	}
	if _, _, err := ReadSeries(bytes.NewReader(nil)); err == nil {
		t.Error("expected error for empty input")
	}
}
