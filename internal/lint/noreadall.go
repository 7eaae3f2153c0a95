package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// NoReadAll keeps io.ReadAll out of the serving side of the wire:
// request bodies decode incrementally through pooled buffers under
// MaxBytesReader bounds, and a session stream never ends, so one
// slurp would undo both the zero-copy decode path and the size
// limits. The check resolves the identifier to the io package's
// ReadAll object, so an aliased import (slurp "io") or a dot import
// cannot smuggle it past — the exact hole the retired string guard
// had — while a local type's own ReadAll method passes.
var NoReadAll = &analysis.Analyzer{
	Name: "noreadall",
	Run:  runNoReadAll,
}

func runNoReadAll(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Name() != "ReadAll" {
				return true
			}
			if pkg := fn.Pkg(); pkg == nil || pkg.Path() != "io" {
				return true
			}
			pass.Reportf(id.Pos(),
				"ingest path references io.ReadAll — decode incrementally through pooled buffers; slurping a body defeats the size bounds and the zero-copy wire")
			return true
		})
	}
	return nil, nil
}
