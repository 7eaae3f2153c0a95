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
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/analysistest"
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
	pkgs := modulePackages(t)

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

// fieldKeep lists struct fields — keyed "path.Type.Field" — that
// TestFieldsLive would flag, as unread or as an exported setting no
// non-test code sets, but that a test needs, each with the test that
// needs it.
var fieldKeep = map[string]string{
	"repro/examples/buffersizing.Result.Occupancy":  "TestSimulateWorkConservation, TestNorrosAgainstSimulationOnFGN: the occupancy series the final backlog and the empirical overflow are read from",
	"repro/internal/core.InstanceStats.AvgVariance": "TestTheorem2OrderingOnLRDTraffic: the E(V) values Theorem 2 orders",
	"repro/internal/core.SNCResult.Rg":              "TestCheckSNCDirectMatchesFFT, TestNegBinomialRgMatchesSNC: the Rg(tau) values the FFT path is held to",
	"repro/internal/dsp.Decomposition.Approx":       "TestWaveletEnergyConservation, TestWaveletHaarKnown: the coarse approximation energy conservation and the Haar values need",
	"repro/internal/lrd.WaveletOptions.Wavelet":     "TestStreamWaveletMatchesBatchHaar: selects the batch Haar reference the streaming estimator is held to",
}

// TestFieldsLive keeps the module to fields that carry something: a
// field of a struct type declared in non-test code must be read by
// non-test code, and an exported field of an exported type must also
// be set by it, unless fieldKeep names the test that needs it. The
// test-support package analysistest is skipped, as in
// TestExportsHaveCallers, and _perfbench's selectors count by name
// in the packages it imports.
func TestFieldsLive(t *testing.T) {
	pkgs := modulePackages(t)
	u := newFieldUse()
	for _, p := range pkgs {
		u.classify(p.Info, p.Files)
	}
	_, perfImports, perfNames := perfbenchSelectors(t, filepath.Join(moduleRoot(t), "_perfbench"))

	seen := make(map[string]bool)
	for _, p := range pkgs {
		if p.Path == "repro/internal/lint/analysistest" {
			continue
		}
		owner := fieldOwners(p.Types)
		var fields []*types.Var
		for _, obj := range p.Info.Defs {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !v.Embedded() {
				fields = append(fields, v)
			}
		}
		slices.SortFunc(fields, func(a, b *types.Var) int { return int(a.Pos() - b.Pos()) })
		for _, v := range fields {
			tn := owner[v]
			key := p.Path + ".struct{}." + v.Name()
			if tn != nil {
				key = p.Path + "." + tn.Name() + "." + v.Name()
			}
			seen[key] = true
			perf := perfImports[p.Path] && perfNames[v.Name()]
			var faults []string
			if !u.read[v] && !perf {
				faults = append(faults, "no non-test code reads it")
			}
			if v.Exported() && tn != nil && tn.Exported() && tn.Parent() == p.Types.Scope() && !u.set[v] && !perf {
				faults = append(faults, "no non-test code sets it")
			}
			_, kept := fieldKeep[key]
			switch {
			case len(faults) == 0 && kept:
				t.Errorf("fieldKeep lists %s, which non-test code now reads and sets — stale entry", key)
			case len(faults) > 0 && !kept:
				t.Errorf("%s (%s): %s — delete it, or list the test that needs it in fieldKeep", key, p.Fset.Position(v.Pos()), strings.Join(faults, " and "))
			}
		}
	}
	for key := range fieldKeep {
		if !seen[key] {
			t.Errorf("fieldKeep lists %s, which is not declared — stale entry", key)
		}
	}
}

// fieldOwners maps each field of a named struct type declared in pkg,
// at package level or inside a function, to that type's name.
func fieldOwners(pkg *types.Package) map[*types.Var]*types.TypeName {
	owner := make(map[*types.Var]*types.TypeName)
	var walk func(*types.Scope)
	walk = func(s *types.Scope) {
		for _, name := range s.Names() {
			if tn, ok := s.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						owner[st.Field(i)] = tn
					}
				}
			}
		}
		for i := 0; i < s.NumChildren(); i++ {
			walk(s.Child(i))
		}
	}
	walk(pkg.Scope())
	return owner
}

// fieldUse records how code touches struct fields, each keyed by its
// generic origin; embedded fields are not tracked.
type fieldUse struct{ read, set map[*types.Var]bool }

func newFieldUse() fieldUse {
	return fieldUse{read: make(map[*types.Var]bool), set: make(map[*types.Var]bool)}
}

func (u fieldUse) add(v *types.Var, read, set bool) {
	v = v.Origin()
	if !v.IsField() || v.Embedded() {
		return
	}
	if read {
		u.read[v] = true
	}
	if set {
		u.set[v] = true
	}
}

// classify adds every field use in files, type-checked into info, to
// u. A field is set when it is an assignment target — directly, through
// an index or under a nested selector — a composite-literal key or
// position, the operand of &, or the operand of a method selection; it
// is read by any other use. Compound assignment, ++ and --, & and a
// method selection count as both. A field with a json tag counts as
// both: encoding/json and internal/nanjson reach it by reflection.
func (u fieldUse) classify(info *types.Info, files []*ast.File) {
	// target holds the selectors a set already accounted for.
	target := make(map[*ast.SelectorExpr]bool)
	chain := func(e ast.Expr, read bool) {
		for e != nil {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				sel := info.Selections[x]
				if sel == nil || sel.Kind() != types.FieldVal {
					return
				}
				u.add(sel.Obj().(*types.Var), read, true)
				target[x] = true
				e = x.X
			default:
				return
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, fld := range n.Fields.List {
					if fld.Tag == nil {
						continue
					}
					tag, _ := strconv.Unquote(fld.Tag.Value)
					if name, ok := reflect.StructTag(tag).Lookup("json"); ok && name != "-" {
						for _, id := range fld.Names {
							u.add(info.Defs[id].(*types.Var), true, true)
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					chain(lhs, n.Tok != token.ASSIGN && n.Tok != token.DEFINE)
				}
			case *ast.IncDecStmt:
				chain(n.X, true)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					chain(n.X, true)
				}
			case *ast.SelectorExpr:
				sel := info.Selections[n]
				switch {
				case sel == nil:
				case sel.Kind() == types.MethodVal:
					chain(n.X, true)
				case sel.Kind() == types.FieldVal && !target[n]:
					u.add(sel.Obj().(*types.Var), true, false)
				}
			case *ast.CompositeLit:
				typ := info.TypeOf(n)
				if typ == nil {
					break
				}
				if p, ok := typ.Underlying().(*types.Pointer); ok {
					typ = p.Elem()
				}
				st, ok := typ.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							u.add(v, false, true)
						}
					} else {
						u.add(st.Field(i), false, true)
					}
				}
			}
			return true
		})
	}
}

// fieldUseAnalyzer reports, at each field declared in a package, how
// classify sees the package's own code use it — the fixture hook that
// pins every case of the rule, whether or not the module still holds
// an example of it.
var fieldUseAnalyzer = &analysis.Analyzer{
	Name: "fielduse",
	Run: func(pass *analysis.Pass) (any, error) {
		u := newFieldUse()
		u.classify(pass.TypesInfo, pass.Files)
		for _, obj := range pass.TypesInfo.Defs {
			v, ok := obj.(*types.Var)
			if !ok || !v.IsField() || !u.read[v] && !u.set[v] {
				continue
			}
			var uses []string
			if u.read[v] {
				uses = append(uses, "read")
			}
			if u.set[v] {
				uses = append(uses, "set")
			}
			pass.Reportf(v.Pos(), "%s: %s", v.Name(), strings.Join(uses, " "))
		}
		return nil, nil
	},
}

// TestFieldUseFixture holds classify to testdata/src/fieldlive: sets
// through an index and a nested selector, &x.f, a method on a field,
// +=, ++, keyed and positional literals, a json-tagged field, a generic
// struct's field and an embedded field.
func TestFieldUseFixture(t *testing.T) {
	analysistest.Run(t, "testdata", fieldUseAnalyzer, "fieldlive")
}

// modulePackages loads and type-checks the module once per test
// binary; TestExportsHaveCallers and TestFieldsLive share the pass, and
// the fixture tests share its loader.
func modulePackages(t *testing.T) []*loader.Package {
	t.Helper()
	moduleOnce.Do(func() {
		var ld *loader.Loader
		if ld, moduleErr = analysistest.Loader(); moduleErr == nil {
			modulePkgs, moduleErr = ld.Load("./...")
		}
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return modulePkgs
}

var (
	moduleOnce sync.Once
	modulePkgs []*loader.Package
	moduleErr  error
)

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
