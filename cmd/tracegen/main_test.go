package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

func TestRunOnOff(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.series")
	if err := run([]string{"-kind", "onoff", "-ticks", "4096", "-hurst", "0.8", "-out", out}); err != nil {
		t.Fatal(err)
	}
	file, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	_, f, err := trace.ReadSeries(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 4096 {
		t.Errorf("series length %d, want 4096", len(f))
	}
}

func TestRunFGN(t *testing.T) {
	out := filepath.Join(t.TempDir(), "f.series")
	if err := run([]string{"-kind", "fgn", "-ticks", "2048", "-hurst", "0.7", "-mean", "5", "-out", out}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-kind", "onoff"}); err == nil {
		t.Error("expected error for missing -out")
	}
	if err := run([]string{"-kind", "nope", "-out", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Error("expected error for unknown kind")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("expected flag parse error")
	}
}
