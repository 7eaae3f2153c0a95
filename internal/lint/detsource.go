package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// DetSource enforces determinism and clock injection in the sampling
// core: runs are reproducible from a seed, so the estimator packages
// may not draw from math/rand's global source, and summaries carry
// injectable timestamps, so they may not call time.Now directly.
//
// Two shapes stay deliberately legal. The rand.New* constructors
// build the seeded *rand.Rand engines are handed (drawing methods on
// such a value are the sanctioned path), and referencing time.Now
// without calling it is the default-clock idiom — config{clock:
// time.Now} — that WithClock overrides in tests.
var DetSource = &analysis.Analyzer{
	Name: "detsource",
	Run:  runDetSource,
}

func runDetSource(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				fn, ok := pass.TypesInfo.Uses[n].(*types.Func)
				if !ok {
					return true
				}
				pkg := fn.Pkg()
				if pkg == nil {
					return true
				}
				switch pkg.Path() {
				case "math/rand", "math/rand/v2":
				default:
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok || sig.Recv() != nil {
					// Methods on *rand.Rand are the seeded path.
					return true
				}
				if strings.HasPrefix(fn.Name(), "New") {
					// Constructors build the seeded generators.
					return true
				}
				pass.Reportf(n.Pos(),
					"uses global %s.%s — draw from the engine's seeded *rand.Rand so runs stay reproducible from their seed",
					pkg.Path(), fn.Name())
			case *ast.CallExpr:
				callee := calleeIdent(n)
				if callee == nil {
					return true
				}
				fn, ok := pass.TypesInfo.Uses[callee].(*types.Func)
				if !ok || fn.Name() != "Now" {
					return true
				}
				if pkg := fn.Pkg(); pkg == nil || pkg.Path() != "time" {
					return true
				}
				pass.Reportf(callee.Pos(),
					"calls time.Now — take the clock from WithClock (referencing time.Now as the default clock value is fine; calling it mid-path is not injectable)")
			}
			return true
		})
	}
	return nil, nil
}

// calleeIdent returns the identifier naming a call's callee: the Sel
// of a package or method selector, or a bare identifier (dot import).
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel
	case *ast.Ident:
		return fun
	}
	return nil
}
