package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/seed_stability.golden from the current output")

// seedStabilitySpecs pins one representative parameterization per
// technique. The trace length exercises several strata, reservoir
// replacements and Bernoulli skips, but keeps the golden file small.
var seedStabilitySpecs = []string{
	"systematic:interval=256,offset=3",
	"stratified:interval=256,seed=7",
	"simple:n=40,seed=7",
	"simple:rate=0.005,seed=7",
	"bernoulli:rate=0.005,seed=7",
	"bss:interval=256,L=4,eps=1.0",
}

// TestSeedStability is the repo's cross-version determinism anchor:
// under a fixed seed, each technique's kept-index sequence is pinned to
// a committed golden file. A diff here means a code change silently
// moved which ticks get sampled — if that is intended (a new kernel
// with a different draw order), regenerate with
//
//	go test ./internal/core -run TestSeedStability -update
//
// and call the change out in the commit message; if not, it is a
// regression. The golden file was regenerated when the skip-based
// kernels replaced the per-tick draws for simple random and Bernoulli
// sampling (their RNG spend changed; systematic, stratified and BSS
// kept their original sequences byte for byte).
func TestSeedStability(t *testing.T) {
	f := streamTestTrace(8192)
	var buf bytes.Buffer
	for _, spec := range seedStabilitySpecs {
		eng, err := Lookup(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		samples, err := Collect(eng, f)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		fmt.Fprintf(&buf, "%s:", spec)
		for _, s := range samples {
			fmt.Fprintf(&buf, " %d", s.Index)
		}
		buf.WriteByte('\n')
	}

	path := filepath.Join("testdata", "seed_stability.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to generate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		gotLines := bytes.Split(buf.Bytes(), []byte("\n"))
		wantLines := bytes.Split(want, []byte("\n"))
		for i := range gotLines {
			if i >= len(wantLines) || !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Errorf("kept-index sequence drifted at line %d:\n got: %.120s\nwant: %.120s",
					i+1, gotLines[i], lineOrMissing(wantLines, i))
			}
		}
		t.Fatalf("seed stability broken: regenerate with -update ONLY if the draw-order change is intentional")
	}
}

func lineOrMissing(lines [][]byte, i int) []byte {
	if i < len(lines) {
		return lines[i]
	}
	return []byte("<missing>")
}
