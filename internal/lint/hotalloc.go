package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Directive marks a function whose body HotAlloc holds to the
// zero-allocation discipline the AllocsPerRun benchmarks assert
// dynamically: the wire codec, the hub offer path and the estimator
// ticks.
const Directive = "//samplelint:hotpath"

// HotAlloc is the static backup for the hot paths' AllocsPerRun
// assertions. Inside a //samplelint:hotpath function it flags the
// allocation shapes a refactor most plausibly introduces:
//
//   - fmt.Sprintf / Sprint / Sprintln (formatting allocates; build
//     bytes with strconv.Append* instead);
//   - non-constant string concatenation;
//   - boxing a float64 into an interface (every conversion of a
//     non-constant float64 to an interface value heap-allocates);
//   - uncapped append — growing a slice that is neither a function
//     parameter (the strconv.Append*-style caller-owned buffer), a
//     reslice like buf[:0] (the pooled-reuse idiom), nor made locally
//     with an explicit capacity.
//
// fmt.Errorf is exempt, as are float64 arguments to any fmt call:
// constructing an error is the cold path by definition, and the
// S-family is already banned outright.
var HotAlloc = &analysis.Analyzer{
	Name: "hotalloc",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasHotPathDirective(fd.Doc) {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
	return nil, nil
}

// hasHotPathDirective reports whether a doc comment carries the
// //samplelint:hotpath directive (alone or with trailing words).
func hasHotPathDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == Directive || strings.HasPrefix(c.Text, Directive+" ") {
			return true
		}
	}
	return false
}

func checkHotFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	params := paramObjects(pass, fd)
	capped := cappedLocals(pass, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, n, params, capped)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(pass, n) && !isConstExpr(pass, n) {
				pass.Reportf(n.OpPos,
					"non-constant string concatenation on a hot path allocates — stage bytes in a reused buffer instead")
			}
		case *ast.AssignStmt:
			checkHotAssign(pass, n)
		}
		return true
	})
}

func checkHotCall(pass *analysis.Pass, call *ast.CallExpr, params, capped map[types.Object]bool) {
	// Conversions: any(v) and interface-typed conversions box.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && types.IsInterface(tv.Type) && isFloat64Expr(pass, call.Args[0]) {
			pass.Reportf(call.Pos(), "boxes a float64 into an interface — the conversion heap-allocates on every tick")
		}
		return
	}
	if id := calleeIdent(call); id != nil {
		switch callee := pass.TypesInfo.Uses[id].(type) {
		case *types.Builtin:
			if callee.Name() == "append" {
				checkHotAppend(pass, call, params, capped)
			}
			return
		case *types.Func:
			if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "fmt" {
				switch callee.Name() {
				case "Sprintf", "Sprint", "Sprintln":
					pass.Reportf(call.Pos(),
						"calls fmt.%s on a hot path — formatting allocates; build bytes with strconv.Append* into a reused buffer",
						callee.Name())
				}
				// Errors are the cold path and the S-family is
				// reported above; skip per-argument boxing for fmt.
				return
			}
		}
	}
	sig, ok := pass.TypesInfo.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := paramTypeAt(sig, i, call.Ellipsis.IsValid())
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		if isFloat64Expr(pass, arg) {
			pass.Reportf(arg.Pos(), "boxes a float64 into an interface argument — the conversion heap-allocates on every tick")
		}
	}
}

func checkHotAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 && isStringExpr(pass, as.Lhs[0]) {
		pass.Reportf(as.TokPos,
			"non-constant string concatenation on a hot path allocates — stage bytes in a reused buffer instead")
		return
	}
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := pass.TypesInfo.TypeOf(lhs)
		if lt == nil || !types.IsInterface(lt) {
			continue
		}
		if isFloat64Expr(pass, as.Rhs[i]) {
			pass.Reportf(as.Rhs[i].Pos(), "boxes a float64 into an interface — the conversion heap-allocates on every tick")
		}
	}
}

func checkHotAppend(pass *analysis.Pass, call *ast.CallExpr, params, capped map[types.Object]bool) {
	if len(call.Args) == 0 {
		return
	}
	switch dst := call.Args[0].(type) {
	case *ast.SliceExpr:
		// buf[:0] — the pooled-buffer reuse idiom.
		return
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[dst]
		if params[obj] || capped[obj] {
			// A parameter is the caller-owned Append*-style buffer;
			// a local made with explicit capacity was sized for this.
			return
		}
		pass.Reportf(call.Pos(),
			"grows %s with an uncapped append on a hot path — preallocate with make(len, cap) or reuse a buffer (buf[:0])", dst.Name)
	default:
		pass.Reportf(call.Pos(),
			"uncapped append on a hot path — preallocate with make(len, cap) or reuse a buffer (buf[:0])")
	}
}

// paramObjects collects the receiver's and parameters' objects — the
// caller-owned buffers an Append*-style function may legally grow.
func paramObjects(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	collect(fd.Recv)
	collect(fd.Type.Params)
	return out
}

// cappedLocals collects locals assigned from a three-argument make —
// slices whose capacity was chosen explicitly.
func cappedLocals(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		call, ok := rhs.(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return
		}
		callee, ok := call.Fun.(*ast.Ident)
		if !ok {
			return
		}
		if b, ok := pass.TypesInfo.Uses[callee].(*types.Builtin); !ok || b.Name() != "make" {
			return
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			out[obj] = true
		} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
			out[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// paramTypeAt returns the static type of the i-th argument slot,
// unwrapping the variadic element type unless the call spreads with
// an explicit ellipsis.
func paramTypeAt(sig *types.Signature, i int, hasEllipsis bool) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		last := sig.Params().At(n - 1).Type()
		if hasEllipsis {
			return last
		}
		if sl, ok := last.Underlying().(*types.Slice); ok {
			return sl.Elem()
		}
		return last
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

func isStringExpr(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isFloat64Expr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value != nil {
		// Constants fold at compile time; only runtime values box per
		// tick.
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float64
}

func isConstExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}
