package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// BatchOffer enforces the batch-ingest invariant: the hot ingest
// layers must call Engine.OfferBatch, never the per-tick Engine.Offer,
// which pays one lock acquisition per tick. The check resolves the
// selector to the actual method object, so an unrelated type with an
// Offer method passes, and it fires on any reference to the method — a
// method value (f := e.Offer) or method expression escapes the same
// per-tick cost and is flagged too.
var BatchOffer = &analysis.Analyzer{
	Name: "batchoffer",
	Doc:  "ingest packages must use OfferBatch, not the per-tick (*sampling.Engine).Offer",
	Run:  runBatchOffer,
}

func runBatchOffer(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Name() != "Offer" {
				return true
			}
			named := receiverNamed(fn)
			if named == nil {
				return true
			}
			obj := named.Obj()
			if obj.Pkg() == nil || obj.Pkg().Path() != samplingPath {
				return true
			}
			if obj.Name() == "Engine" {
				pass.Reportf(sel.Sel.Pos(),
					"ingest path uses (*sampling.Engine).Offer — use OfferBatch; Offer is the single-tick convenience form and pays one lock acquisition per tick")
			}
			return true
		})
	}
	return nil, nil
}

// receiverNamed unwraps a method's receiver to its named type, or nil
// for package-level functions and methods on unnamed types.
func receiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
