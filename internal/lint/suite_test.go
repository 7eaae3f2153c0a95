package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/loader"
)

// The meta-tests hold the suite's configuration against the repo
// itself, so neither the analyzer set nor the scope lists can
// silently go stale — the failure mode the retired hotpath_test.go's
// hand-maintained directory list was one refactor away from.

// TestSuiteComplete pins the analyzer set: retiring hotpath_test.go
// is only sound while all four checks exist and every one has a
// scope entry the driver can apply.
func TestSuiteComplete(t *testing.T) {
	want := []string{"detsource", "hotalloc", "nanwire", "noreadall"}
	var got []string
	for _, a := range lint.Analyzers() {
		got = append(got, a.Name)
		if _, ok := lint.Scopes[a.Name]; !ok {
			t.Errorf("analyzer %s has no scope entry — the driver would never run it", a.Name)
		}
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("analyzer suite = %v, want %v", got, want)
	}
	for name := range lint.Scopes {
		found := false
		for _, a := range lint.Analyzers() {
			if a.Name == name {
				found = true
			}
		}
		if !found {
			t.Errorf("scope entry %s names no registered analyzer", name)
		}
	}
}

// TestScopesCoverIngestGraph derives the wire's ingest surface from
// the import graph instead of trusting the config: every importer of
// the binary wire must be under noreadall or carry an explicit,
// documented exemption.
func TestScopesCoverIngestGraph(t *testing.T) {
	imports := moduleImports(t)

	mustScope := func(analyzer, pkg string) {
		t.Helper()
		for _, p := range lint.Scopes[analyzer] {
			if p == pkg {
				return
			}
		}
		t.Errorf("%s is missing from Scopes[%q] — the config has gone stale", pkg, analyzer)
	}

	mustScope("noreadall", "repro/sampling/wire")
	for pkg, imps := range imports {
		for _, imp := range imps {
			if imp != "repro/sampling/wire" {
				continue
			}
			if _, exempt := lint.ReadAllExempt[pkg]; exempt {
				continue
			}
			mustScope("noreadall", pkg)
		}
	}
	for pkg := range lint.ReadAllExempt {
		uses := false
		for _, imp := range imports[pkg] {
			if imp == "repro/sampling/wire" {
				uses = true
			}
		}
		if !uses {
			t.Errorf("ReadAllExempt lists %s, which no longer imports repro/sampling/wire — stale exemption", pkg)
		}
	}
}

// TestScopedPackagesExist is the sawSource guard carried over from
// hotpath_test.go: every scoped path must hold non-test sources, so a
// renamed or deleted package fails the gate instead of silently
// shrinking it. The observability package must stay under detsource:
// its instruments take injected clocks.
func TestScopedPackagesExist(t *testing.T) {
	const obsPath = "repro/internal/obs"
	imports := moduleImports(t)
	for analyzer, scope := range lint.Scopes {
		for _, pkg := range scope {
			if _, ok := imports[pkg]; !ok {
				t.Errorf("Scopes[%q] names %s, which holds no non-test Go sources — scope list stale", analyzer, pkg)
			}
		}
	}
	if !slices.Contains(lint.Scopes["detsource"], obsPath) {
		t.Errorf("%s is missing from Scopes[%q] — its clocks must stay injected", obsPath, "detsource")
	}
}

// TestHotPathAnnotationsPresent keeps the hotalloc analyzer honest:
// annotation-driven checks enforce nothing if a refactor drops the
// directives, so the packages whose AllocsPerRun assertions hotalloc
// statically backs must each carry at least one.
func TestHotPathAnnotationsPresent(t *testing.T) {
	root := moduleRoot(t)
	for _, pkg := range []string{"sampling", "sampling/hub", "sampling/wire", "sampling/estimate", "internal/lrd", "internal/obs"} {
		dir := filepath.Join(root, filepath.FromSlash(pkg))
		found := false
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading %s: %v", dir, err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(data), lint.Directive) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s carries no %s directive — its hot path lost static allocation coverage", pkg, lint.Directive)
		}
	}
}

// moduleRoot walks up from the working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

// moduleImports maps every module package (with non-test sources) to
// the imports of those sources, parsed imports-only.
func moduleImports(t *testing.T) map[string][]string {
	t.Helper()
	root := moduleRoot(t)
	out := make(map[string][]string)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := "repro"
		if rel != "." {
			pkg = "repro/" + filepath.ToSlash(rel)
		}
		imps := out[pkg]
		for _, imp := range file.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			imps = append(imps, p)
		}
		out[pkg] = imps
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// exportKeep lists exported identifiers in the checked packages —
// package-level names as "path.Name", methods as "path.Type.Method" —
// that no non-test code calls but a test other than their own needs as
// a reference or harness, each with the test that needs it.
// TestExportsHaveCallers requires every other exported identifier
// there to have a non-test caller, so keeping one alive for tests is
// always an explicit, documented decision.
var exportKeep = map[string]string{
	"repro/internal/core.CheckSNCDirect":                 "TestCheckSNCDirectMatchesFFT: the direct-convolution reference for CheckSNC's FFT path",
	"repro/internal/core.Lookup":                         "TestEngineMatchesCoreBatch (sampling): builds the bare kernel the public engine is held to",
	"repro/internal/core.StratifiedInstances":            "TestTheorem2OrderingOnLRDTraffic: the per-instance seeding of the Theorem 2 ordering check",
	"repro/internal/dsp.DFTNaive":                        "TestFFTMatchesNaiveDFT: the O(n^2) reference for FFT",
	"repro/internal/dsp.Haar":                            "TestStreamWaveletMatchesBatchHaar (lrd): the batch wavelet the streaming estimator is held to",
	"repro/internal/dsp.IFFT":                            "TestFFTRoundTrip: the inverse that checks FFT",
	"repro/internal/lint.ReadAllExempt":                  "TestScopesCoverIngestGraph: the documented exemptions from its import-graph rule",
	"repro/internal/lrd.CompareFoldedStates":             "FuzzEstimatorTick (sampling/estimate): the state comparison for batch-vs-tick folds",
	"repro/internal/lrd.FGNACF.DeltaSeries":              "TestDeltaNonnegativeForAllBeta: the delta_tau >= 0 check of Theorem 2's premise",
	"repro/internal/obs.HTTPObserver.SetClock":           "obs_test.go: injects the fake clock the latency assertions read",
	"repro/internal/stats.Autocovariance":                "TestFGNMatchesTheoreticalAutocov (lrd): the empirical side of the fGn check",
	"repro/internal/stats.MinMax":                        "TestOnOffMeanMatchesTheory (traffic): bounds the generated series",
	"repro/internal/traffic.OnOffConfig.TheoreticalMean": "TestOnOffMeanMatchesTheory: the theory side the generated mean is held to",
	"repro/sampling/hub.WithClock":                       "TestHubSweep, TestHubGroupSweep, TestEvictHook (hub): the fake clock that drives idle eviction",
}

// protocolMethods are called by the standard library through an
// interface the module never names (fmt, errors, encoding/json), so
// they count as live wherever they are declared. Error is not listed:
// module code names the error interface, so the interface rule keeps
// every Error method.
var protocolMethods = map[string]bool{
	"String": true, "Unwrap": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// checkedPkg reports whether TestExportsHaveCallers holds path's
// exported identifiers to having callers: the internal packages and the
// public sampling tree.
func checkedPkg(path string) bool {
	for _, root := range []string{"repro/internal", "repro/sampling"} {
		if path == root || strings.HasPrefix(path, root+"/") {
			return true
		}
	}
	return false
}

// TestExportsHaveCallers keeps internal/ and sampling/ to code that
// runs: a package-level exported func, type, var or const in a checked
// package, and every exported method of a named type there, must be
// referenced by non-test code — in the module or in _perfbench — or be
// listed in exportKeep. A method also counts as referenced when
// non-test code uses a non-empty interface that its receiver (or a
// type embedding it) implements and the method is in that interface
// (error types' Error methods live this way), or when it is a protocol
// method. The test-support package analysistest is skipped: its only
// callers are tests by design.
func TestExportsHaveCallers(t *testing.T) {
	ld, err := loader.New()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.Load("./...")
	if err != nil {
		t.Fatal(err)
	}

	// used holds every checked object non-test code refers to, methods
	// mapped to their generic origin; ifaces holds every non-empty
	// interface type of a non-test expression, the parameter and result
	// types of the functions it calls included.
	used := make(map[types.Object]bool)
	use := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if obj.Pkg() != nil && checkedPkg(obj.Pkg().Path()) {
			used[obj] = true
		}
	}
	var ifaces []*types.Interface
	seenType := make(map[types.Type]bool)
	var collect func(types.Type)
	collect = func(typ types.Type) {
		if typ == nil || seenType[typ] {
			return
		}
		seenType[typ] = true
		switch u := typ.(type) {
		case *types.Named, *types.Alias:
			if it, ok := u.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		case *types.Interface:
			if u.NumMethods() > 0 {
				ifaces = append(ifaces, u)
			}
		case *types.Signature:
			for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tup.Len(); i++ {
					collect(tup.At(i).Type())
				}
			}
		}
	}
	// concrete holds every non-generic, non-interface named type that
	// non-test code declares, the candidates for the interface rule.
	var concrete []*types.Named
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			use(obj)
		}
		for _, sel := range p.Info.Selections {
			use(sel.Obj())
		}
		for _, tv := range p.Info.Types {
			collect(tv.Type)
		}
		for _, obj := range p.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
					concrete = append(concrete, n)
				}
			}
		}
	}
	for _, n := range concrete {
		ptr := types.NewPointer(n)
		var mset *types.MethodSet
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			if mset == nil {
				mset = types.NewMethodSet(ptr)
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
					use(sel.Obj())
				}
			}
		}
	}
	perf, perfImports, perfNames := perfbenchSelectors(t, filepath.Join(moduleRoot(t), "_perfbench"))

	seen := make(map[string]bool)
	check := func(key string, obj types.Object, live bool) {
		seen[key] = true
		_, kept := exportKeep[key]
		switch {
		case live && kept:
			t.Errorf("exportKeep lists %s, which non-test code now calls — stale entry", key)
		case !live && !kept:
			t.Errorf("%s (%s) has no non-test caller — delete it, or list the test that needs it in exportKeep", key, pkgs[0].Fset.Position(obj.Pos()))
		}
	}
	for _, p := range pkgs {
		if !checkedPkg(p.Path) || p.Path == "repro/internal/lint/analysistest" {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				key := p.Path + "." + name
				check(key, obj, used[obj] || perf[key])
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() {
					continue
				}
				key := p.Path + "." + name + "." + m.Name()
				check(key, m, used[m] || protocolMethods[m.Name()] || perfImports[p.Path] && perfNames[m.Name()])
			}
		}
	}
	for key := range exportKeep {
		if !seen[key] {
			t.Errorf("exportKeep lists %s, which is not declared — stale entry", key)
		}
	}
}

// perfbenchSelectors parses dir's Go files, a module the loader does
// not type-check. It returns "importpath.Name" for every selector
// whose operand is an imported package name, the import paths, and
// the names of every other selector: a method called there is matched
// by name alone.
func perfbenchSelectors(t *testing.T, dir string) (pkgSel, imported, names map[string]bool) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	pkgSel, imported, names = make(map[string]bool), make(map[string]bool), make(map[string]bool)
	fset := token.NewFileSet()
	for _, f := range files {
		file, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		imports := make(map[string]string)
		for _, imp := range file.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
			imported[p] = true
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					pkgSel[imports[x.Name]+"."+sel.Sel.Name] = true
				} else {
					names[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	return pkgSel, imported, names
}
