package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunOneFigureSmall(t *testing.T) {
	// fig04 and fig09 are pure analytics — instant even in tests.
	if err := run([]string{"-small", "-fig", "fig04,fig09"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-fig", "fig99"}); err == nil {
		t.Error("expected unknown-figure error")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("expected flag parse error")
	}
}

// capture runs fn with stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan []byte)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.Bytes()
	}()
	ferr := fn()
	w.Close()
	out := <-done
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}

// TestParallelOutputMatchesSerial is the acceptance check for the worker
// pool: figure tables on stdout must be byte-identical no matter how many
// workers GOMAXPROCS allows. The chosen figures exercise deterministic
// analytics and trace-backed experiments.
func TestParallelOutputMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	withProcs := func(n int) func() error {
		return func() error {
			runtime.GOMAXPROCS(n)
			return run([]string{"-small", "-fig", "fig04,fig09,fig05,fig02"})
		}
	}
	serial := capture(t, withProcs(1))
	parallel := capture(t, withProcs(4))
	if len(serial) == 0 {
		t.Fatal("serial run printed nothing")
	}
	if !bytes.Equal(serial, parallel) {
		t.Errorf("parallel stdout differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/small.golden from the current output")

// TestSmallGolden pins every figure's table at the reduced scale to a
// committed golden file, so a change to a sampling kernel, an
// estimator or a trace generator that moves a figure shows up here
// instead of going unnoticed. If the move is intended, regenerate with
//
//	go test ./cmd/figures -run TestSmallGolden -update
//
// and call the change out in the commit message. The tables print
// rounded floats, and architectures whose compiler fuses multiply-adds
// can move a last digit, so the file is checked on amd64 only.
func TestSmallGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden is amd64 output; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	got := capture(t, func() error { return run([]string{"-small"}) })
	path := filepath.Join("testdata", "small.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to generate): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := bytes.Split(got, []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		g, w := lineOrMissing(gotLines, i), lineOrMissing(wantLines, i)
		if !bytes.Equal(g, w) {
			t.Fatalf("figure output drifted at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}

func lineOrMissing(lines [][]byte, i int) []byte {
	if i < len(lines) {
		return lines[i]
	}
	return []byte("<missing>")
}
