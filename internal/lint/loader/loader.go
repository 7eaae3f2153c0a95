// Package loader parses and type-checks the packages of this module
// for the samplelint analyzers. It is the hermetic stand-in for
// golang.org/x/tools/go/packages: module packages ("repro/...") are
// resolved by walking the repository from go.mod, the standard
// library is resolved through the compiler's source importer, and
// everything shares one token.FileSet so diagnostics carry real
// positions. Test files are deliberately excluded — equivalence tests
// drive the per-tick path as the reference and benchmarks slurp
// response bodies, exactly the exemption the retired hotpath_test.go
// granted.
package loader

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one type-checked package: its syntax, its resolved
// types, and the directory it was read from.
type Package struct {
	Path  string // import path ("repro/sampling/hub")
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader resolves and type-checks packages on demand, memoizing by
// import path so shared dependencies (the sampling package under both
// the hub and the daemon, say) are checked once.
type Loader struct {
	fset    *token.FileSet
	std     types.Importer // source importer for GOROOT packages
	module  string         // module path from go.mod
	root    string         // module root directory
	pkgs    map[string]*Package
	loading map[string]bool
}

// New finds the enclosing module from the working directory and
// returns a loader rooted there.
func New() (*Loader, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return NewAt(dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("loader: no go.mod above working directory")
		}
		dir = parent
	}
}

// NewAt returns a loader rooted at the module directory root, which
// must hold a go.mod.
func NewAt(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("loader: %s/go.mod declares no module", root)
	}
	// The source importer type-checks GOROOT packages from source via
	// go/build; with cgo enabled it would try to preprocess net's cgo
	// resolver files. The pure-Go variants type-check identically for
	// analysis purposes, so force them.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		module:  module,
		root:    root,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// Import resolves one import path for the type checker: module
// packages recurse into the loader, everything else (the standard
// library) goes to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		p, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// Load resolves patterns — "./...", "./dir/...", "./dir", or plain
// import paths — into type-checked packages, sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	paths := make(map[string]bool)
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == l.module+"/...":
			dirs, err := l.packageDirs(l.root)
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				paths[l.pathOf(d)] = true
			}
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			dirs, err := l.packageDirs(l.dirOf(base))
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				paths[l.pathOf(d)] = true
			}
		default:
			paths[l.pathOf(l.dirOf(pat))] = true
		}
	}
	out := make([]*Package, 0, len(paths))
	for path := range paths {
		p, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// dirOf maps a pattern base — "./x", "x", or "repro/x" — to its
// directory under the module root.
func (l *Loader) dirOf(base string) string {
	base = strings.TrimPrefix(base, "./")
	base = strings.TrimPrefix(base, l.module+"/")
	if base == "." || base == l.module {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(base))
}

// pathOf maps a directory under the module root to its import path.
func (l *Loader) pathOf(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		return l.module
	}
	return l.module + "/" + filepath.ToSlash(rel)
}

// packageDirs walks root and returns every directory holding at least
// one non-test Go source file, skipping hidden, underscore-prefixed
// and testdata directories — the same set `go build ./...` compiles.
func (l *Loader) packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		files, err := sourceFiles(path)
		if err != nil {
			return err
		}
		if len(files) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// sourceFiles lists the non-test Go sources of dir that the running
// toolchain builds (build constraints and file-name suffixes honored),
// sorted.
func sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	return files, nil
}

// loadPath loads a module package by import path.
func (l *Loader) loadPath(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
	return l.load(path, filepath.Join(l.root, filepath.FromSlash(rel)))
}

// LoadDir type-checks the package in dir under the given import path
// without requiring it to live inside the module — the analysistest
// fixture hook. Fixtures may import module packages; those resolve
// through the loader as usual.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.load(path, dir)
}

// load parses and type-checks one package.
func (l *Loader) load(path, dir string) (*Package, error) {
	if l.loading[path] {
		return nil, fmt.Errorf("loader: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := sourceFiles(dir)
	if err != nil {
		return nil, fmt.Errorf("loader: %s: %w", path, err)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("loader: %s holds no non-test Go sources", path)
	}
	var syntax []*ast.File
	for _, f := range files {
		file, err := parser.ParseFile(l.fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, file)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("loader: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: syntax, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}
