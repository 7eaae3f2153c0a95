// Package analysistest runs one analyzer over a fixture package and
// checks its diagnostics against // want comments — the hermetic
// stand-in for golang.org/x/tools/go/analysis/analysistest, with the
// same fixture layout (testdata/src/<pkg>/*.go) and expectation
// syntax, so fixtures survive a future migration onto x/tools
// unchanged.
//
// A // want comment holds one or more quoted or backquoted regular
// expressions and binds to its own line: every diagnostic the
// analyzer reports on that line must match one expectation, every
// expectation must be matched by a diagnostic, and any diagnostic on
// a line without expectations fails the test. Fixtures may import
// module packages ("repro/sampling"); they resolve through the
// shared loader.
package analysistest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

// sharedLoader memoizes one loader across all fixture tests in the
// process, so the sampling package's dependency tree type-checks once.
var (
	loaderOnce sync.Once
	sharedLd   *loader.Loader
	loaderErr  error
)

// Loader returns the loader the fixtures are type-checked with, one per
// process; a test that loads the module through it reuses every
// package the fixtures already checked, the standard library included.
func Loader() (*loader.Loader, error) {
	loaderOnce.Do(func() {
		sharedLd, loaderErr = loader.New()
	})
	return sharedLd, loaderErr
}

// wantToken matches one expectation string: backquoted or quoted.
var wantToken = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// Run loads testdata/src/<pkg>, applies the analyzer, and holds its
// diagnostics against the fixture's // want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkg string) {
	t.Helper()
	ld, err := Loader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	p, err := ld.LoadDir(filepath.Join(testdata, "src", pkg), pkg)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkg, err)
	}

	type key struct {
		file string
		line int
	}
	want := make(map[key][]*expectation)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 || strings.TrimSpace(text[:idx]) != "" {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				k := key{filepath.Base(pos.Filename), pos.Line}
				for _, m := range wantToken.FindAllStringSubmatch(text[idx+len("want "):], -1) {
					pat := m[1]
					if m[2] != "" || pat == "" {
						// Quoted form: undo string escapes before
						// compiling.
						unq, err := strconv.Unquote(`"` + m[2] + `"`)
						if err != nil {
							t.Fatalf("%s: bad want string %q: %v", pos, m[2], err)
						}
						pat = unq
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					want[k] = append(want[k], &expectation{re: re})
				}
			}
		}
	}

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Files:     p.Files,
		Pkg:       p.Types,
		TypesInfo: p.Info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}

	for _, d := range diags {
		pos := p.Fset.Position(d.Pos)
		k := key{filepath.Base(pos.Filename), pos.Line}
		if !claim(want[k], d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", position(pos), d.Message)
		}
	}
	for k, exps := range want {
		for _, e := range exps {
			if !e.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, e.re)
			}
		}
	}
}

// claim marks the first unmatched expectation whose pattern matches
// the message.
func claim(exps []*expectation, msg string) bool {
	for _, e := range exps {
		if !e.matched && e.re.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	return false
}

func position(pos token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
}
