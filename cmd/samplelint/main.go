// Command samplelint runs the repo's static-analysis suite: the
// type-resolved checks in internal/lint that enforce the hot-path and
// determinism invariants the compiler cannot see — no body slurping on
// the serving wire, seeded randomness and injected clocks in the
// sampling core, the zero-allocation hot-path annotation, and the
// null-for-NaN JSON wire form.
//
// Usage:
//
//	go run ./cmd/samplelint ./...
//	go run ./cmd/samplelint ./sampling/... ./cmd/sampled
//
// Each analyzer applies to the package scope configured in
// internal/lint (hotalloc is annotation-driven and runs everywhere);
// diagnostics print as path:line:col: message (analyzer) and any
// finding exits non-zero, which is how the CI lint job gates on it.
// Test files are exempt, exactly as they were under the retired
// hotpath_test.go: benchmarks drain response bodies and tests read
// whole responses.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: samplelint [packages]\n\nRuns the samplelint analyzers (see internal/lint) over the given\npackage patterns (default ./...). Exits 1 on any diagnostic.")
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if err := run(patterns); err != nil {
		fmt.Fprintln(os.Stderr, "samplelint:", err)
		os.Exit(1)
	}
}

type finding struct {
	file     string
	line     int
	col      int
	message  string
	analyzer string
}

func run(patterns []string) error {
	ld, err := loader.New()
	if err != nil {
		return err
	}
	pkgs, err := ld.Load(patterns...)
	if err != nil {
		return err
	}
	cwd, _ := os.Getwd()
	var findings []finding
	for _, p := range pkgs {
		for _, a := range lint.Analyzers() {
			if !lint.Applies(a, p.Path) {
				continue
			}
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      p.Fset,
				Files:     p.Files,
				Pkg:       p.Types,
				TypesInfo: p.Info,
				Report: func(d analysis.Diagnostic) {
					pos := p.Fset.Position(d.Pos)
					file := pos.Filename
					if rel, err := filepath.Rel(cwd, file); err == nil {
						file = rel
					}
					findings = append(findings, finding{
						file: file, line: pos.Line, col: pos.Column,
						message: d.Message, analyzer: a.Name,
					})
				},
			}
			if _, err := a.Run(pass); err != nil {
				return fmt.Errorf("%s on %s: %w", a.Name, p.Path, err)
			}
		}
	}
	if len(findings) == 0 {
		fmt.Printf("samplelint: %d packages clean\n", len(pkgs))
		return nil
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		return a.col < b.col
	})
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s (%s)\n", f.file, f.line, f.col, f.message, f.analyzer)
	}
	return fmt.Errorf("%d finding(s)", len(findings))
}
