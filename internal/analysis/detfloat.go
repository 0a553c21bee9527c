package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// bitIdentityPkgs are the packages whose arithmetic must be bit-identical
// across kernels, batch sizes and process restarts: everything on the path
// from weights to the extracted closed-form (W, b), plus the wire codecs —
// a float that crosses the HTTP boundary must come back with the same bits
// whichever codec carried it.
var bitIdentityPkgs = map[string]bool{
	"repro/internal/atlas":   true,
	"repro/internal/mat":     true,
	"repro/internal/nn":      true,
	"repro/internal/openbox": true,
	"repro/internal/plm":     true,
	"repro/internal/wire":    true,
}

// orderedOutputPkgs additionally produce ordered results or submission-order
// state (harvest tables, response caches) whose layout must not depend on
// map iteration order. The map-range determinism rule applies here too.
var orderedOutputPkgs = map[string]bool{
	"repro/internal/extract": true,
	"repro/internal/api":     true,
	"repro/internal/jobs":    true,
}

// Detfloat enforces the determinism contract on the bit-identity packages.
//
// Two rule groups (how a product meets its add is roundedproduct's rule):
//
//  1. Ambient nondeterminism is forbidden in non-test code: time.Now /
//     time.Since and the global math/rand functions (rand.Float64 etc.).
//     Seeded generators are the sanctioned idiom — constructing one with
//     rand.New / rand.NewSource and calling methods on it is allowed.
//  2. Inside `for range` over a map, iteration order is randomized per run,
//     so the loop body must be order-independent: appending to an outer
//     slice, accumulating into an outer float, or making a side-effect-only
//     call that consumes the loop variables all bake map order into the
//     result and are flagged. (The sanctioned dedup shape ranges over the
//     input slice and uses the map only for membership.)
var Detfloat = &Analyzer{
	Name: "detfloat",
	Doc: "forbid wall-clock and global-RNG reads and map-iteration-ordered " +
		"output in the bit-identity packages",
	Run: runDetfloat,
}

// globalRandFuncs are the math/rand package-level functions that draw from
// the shared global source. Constructors are deliberately absent: rand.New,
// rand.NewSource and rand.NewZipf build the seeded generators the training
// code injects.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

func runDetfloat(pass *Pass) error {
	path := pass.Pkg.Path()
	bitIdentity := bitIdentityPkgs[path]
	mapRule := bitIdentity || orderedOutputPkgs[path]
	if !bitIdentity && !mapRule {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if bitIdentity {
					checkForbiddenCall(pass, n)
				}
			case *ast.RangeStmt:
				if mapRule {
					checkMapRange(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

// pkgFunc resolves a call expression to (package path, function name) when
// the callee is a package-level function accessed via its package name, and
// returns ok=false otherwise (methods, locals, builtins, conversions).
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	ident, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[ident].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

func checkForbiddenCall(pass *Pass, call *ast.CallExpr) {
	pkg, name, ok := pkgFunc(pass.TypesInfo, call)
	if !ok {
		return
	}
	switch {
	case pkg == "time" && (name == "Now" || name == "Since" || name == "Until"):
		pass.Reportf(call.Pos(), "time.%s reads the wall clock inside a bit-identity package; results must be reproducible across runs", name)
	case (pkg == "math/rand" || pkg == "math/rand/v2") && globalRandFuncs[name]:
		pass.Reportf(call.Pos(), "rand.%s draws from the process-global source; inject a seeded *rand.Rand instead", name)
	}
}

// checkMapRange flags order-dependent effects inside a range over a map.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	loopVars := rangeVarObjects(pass.TypesInfo, rng)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, rng, n)
		case *ast.ExprStmt:
			if call, isCall := n.X.(*ast.CallExpr); isCall {
				checkMapRangeCall(pass, rng, call, loopVars)
			}
		}
		return true
	})
}

// rangeVarObjects returns the objects bound by the range clause (key and
// value variables).
func rangeVarObjects(info *types.Info, rng *ast.RangeStmt) map[types.Object]bool {
	vars := make(map[types.Object]bool, 2)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if ident, ok := e.(*ast.Ident); ok && ident.Name != "_" {
			if obj := info.Defs[ident]; obj != nil {
				vars[obj] = true
			} else if obj := info.Uses[ident]; obj != nil {
				vars[obj] = true
			}
		}
	}
	return vars
}

// declaredOutside reports whether the identifier's object is declared
// outside the range statement — mutating it from the loop body leaks map
// iteration order out of the loop.
func declaredOutside(info *types.Info, rng *ast.RangeStmt, e ast.Expr) bool {
	ident := rootIdent(e)
	if ident == nil {
		return false
	}
	obj := info.Uses[ident]
	if obj == nil {
		obj = info.Defs[ident]
	}
	if obj == nil || obj.Pos() == token.NoPos {
		return false
	}
	return obj.Pos() < rng.Pos() || obj.Pos() >= rng.End()
}

// rootIdent unwraps selectors, indexing and stars down to the base
// identifier of an lvalue.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func checkMapRangeAssign(pass *Pass, rng *ast.RangeStmt, as *ast.AssignStmt) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		for _, lhs := range as.Lhs {
			if !declaredOutside(pass.TypesInfo, rng, lhs) {
				continue
			}
			if tv, ok := pass.TypesInfo.Types[lhs]; ok && isFloat(tv.Type) {
				pass.Reportf(as.Pos(), "floating-point accumulation in map iteration order is nondeterministic; iterate a sorted or insertion-ordered slice instead")
			}
		}
	case token.ASSIGN, token.DEFINE:
		// The fused step x = math.FMA(a, b, x) into an outer float
		// accumulates too.
		for _, lhs := range floatAccumulations(pass, as) {
			if declaredOutside(pass.TypesInfo, rng, lhs) {
				pass.Reportf(as.Pos(), "floating-point accumulation in map iteration order is nondeterministic; iterate a sorted or insertion-ordered slice instead")
			}
		}
		// append(outer, ...) assigned back to an outer variable builds
		// ordered output from map order.
		for i, rhs := range as.Rhs {
			call, isCall := rhs.(*ast.CallExpr)
			if !isCall || !isBuiltinAppend(pass.TypesInfo, call) {
				continue
			}
			if i < len(as.Lhs) && declaredOutside(pass.TypesInfo, rng, as.Lhs[i]) {
				pass.Reportf(as.Pos(), "appending to an outer slice in map iteration order is nondeterministic; collect keys, sort, then append")
			}
		}
	}
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	ident, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[ident].(*types.Builtin)
	return ok && b.Name() == "append"
}

// checkMapRangeCall flags a side-effect-only call that consumes the loop
// variables: whatever state the callee mutates (a cache, a writer, an
// accumulator) now depends on map iteration order. Calls that ignore the
// loop variables are loop-invariant with respect to ordering and pass.
func checkMapRangeCall(pass *Pass, rng *ast.RangeStmt, call *ast.CallExpr, loopVars map[types.Object]bool) {
	if len(loopVars) == 0 {
		return
	}
	if ident, ok := call.Fun.(*ast.Ident); ok {
		if _, builtin := pass.TypesInfo.Uses[ident].(*types.Builtin); builtin {
			return
		}
	}
	uses := false
	ast.Inspect(call, func(n ast.Node) bool {
		if ident, ok := n.(*ast.Ident); ok && loopVars[pass.TypesInfo.Uses[ident]] {
			uses = true
		}
		return !uses
	})
	if uses {
		pass.Reportf(call.Pos(), "side-effecting call on map-ranged values runs in nondeterministic order; iterate the inputs in submission order instead")
	}
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
