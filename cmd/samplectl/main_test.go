package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/sampling"
)

// techniqueSpecs names one sampler per technique.
var techniqueSpecs = []string{
	"systematic:rate=1e-2,offset=3",
	"stratified:rate=1e-2,seed=1",
	"simple:rate=1e-2,seed=1",
	"bernoulli:rate=1e-2,seed=1",
	"bss:rate=1e-2,L=10,eps=1",
}

// writeSeries stores an on/off series in a temporary file and returns
// the path and the series.
func writeSeries(t *testing.T) (string, []float64) {
	t.Helper()
	cfg := traffic.OnOffConfig{
		Sources: 8, AlphaOn: 1.4, AlphaOff: 1.4,
		MeanOn: 5, MeanOff: 20, Rate: 1, Ticks: 1 << 14,
	}
	f, err := traffic.GenerateOnOff(cfg, dist.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.series")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	if err := trace.WriteSeries(file, 1, f); err != nil {
		t.Fatal(err)
	}
	return path, f
}

// TestRunEveryTechnique: the report's sample counts are what the public
// engine keeps from the same series under the same spec.
func TestRunEveryTechnique(t *testing.T) {
	path, f := writeSeries(t)
	for _, spec := range techniqueSpecs {
		var out strings.Builder
		if err := run([]string{"-spec", spec, path}, &out); err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		eng, err := sampling.New(sampling.MustParse(spec))
		if err != nil {
			t.Fatal(err)
		}
		samples, err := eng.Sample(f)
		if err != nil {
			t.Fatal(err)
		}
		base, qualified := sampling.CountKinds(samples)
		want := fmt.Sprintf("samples:       %d (base %d, qualified %d)\n", len(samples), base, qualified)
		if !strings.Contains(out.String(), want) {
			t.Errorf("%s: report lacks %q:\n%s", spec, want, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	path, _ := writeSeries(t)
	for _, args := range [][]string{
		nil,
		{path},                            // no -spec
		{"-spec", "systematic:rate=1e-2"}, // no series
		{"-spec", "nope:rate=1e-2", path}, // unknown technique
		{"-spec", "systematic:rate=2", path},
		{"-spec", "systematic:rate=1e-2", "/nonexistent"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%q) succeeded, want an error", args)
		}
	}
}

func TestRunSpec(t *testing.T) {
	path, _ := writeSeries(t)
	if err := run([]string{"-spec", "bss:rate=1e-2,L=5,eps=1.1", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", "bss:rate=1e-2,bogus=1", path}, io.Discard); err == nil {
		t.Error("expected unknown-parameter error")
	}
	if err := run([]string{"-spec", "stratified:interval=50,seed=4", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
}
