package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// roundedProductPkgs are the packages whose float arithmetic the GEMM tier
// ladder and the LU's kernels hold bit-identical to a scalar Go loop.
var roundedProductPkgs = map[string]bool{
	"repro/internal/mat": true,
	"repro/internal/nn":  true,
	"repro/internal/plm": true,
}

// Roundedproduct requires a float product that feeds an add or subtract to
// be one fused multiply-add, math.FMA(a, b, c): it flags x + a*b, x - a*b,
// a*b - x, s += a*b and s -= a*b, and the same shapes with the product
// rounded first by a conversion, x + float64(a*b).
//
// Every kernel tier takes each product-accumulate step as one fused
// multiply-add (VFMADD/VFNMADD on amd64, VFMLA on arm64), which rounds
// once; math.FMA is the Go loops' spelling of that step on every
// architecture. A plain a*b + c is left to the compiler, and the Go spec
// lets it either fuse the pair or not: the arm64 compiler fuses, amd64
// does not, so such a loop would round twice per step on amd64 where every
// vector kernel rounds once — and the tiers would stop agreeing bit for
// bit. float64(a*b) + c rounds twice on every architecture. The check is
// syntactic: a product stored in a variable and added in a later statement
// escapes it; the arm64 compiler may fuse that pair, which the CI step
// mapping every fused instruction of the arm64 build back to a math.FMA
// call catches.
var Roundedproduct = &Analyzer{
	Name: "roundedproduct",
	Doc: "a float product feeding an add or subtract must be one fused " +
		"multiply-add, math.FMA(a, b, c), the step every kernel tier takes",
	Run: runRoundedproduct,
}

func runRoundedproduct(pass *Pass) error {
	if !roundedProductPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op == token.ADD || n.Op == token.SUB {
					reportFloatProduct(pass, n.X)
					reportFloatProduct(pass, n.Y)
				}
			case *ast.AssignStmt:
				if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN {
					for _, rhs := range n.Rhs {
						reportFloatProduct(pass, rhs)
					}
				}
			}
			return true
		})
	}
	return nil
}

// reportFloatProduct reports e if it is a non-constant float product, bare
// or inside a conversion to a float type.
func reportFloatProduct(pass *Pass, e ast.Expr) {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && isFloat(tv.Type) {
			e = ast.Unparen(call.Args[0])
		}
	}
	mul, ok := e.(*ast.BinaryExpr)
	if !ok || mul.Op != token.MUL {
		return
	}
	tv, ok := pass.TypesInfo.Types[mul]
	if !ok || tv.Value != nil || !isFloat(tv.Type) {
		return
	}
	pass.Reportf(mul.Pos(), "float product feeding an add or subtract must be one fused step, as on every kernel tier: math.FMA(a, b, c)")
}

// isMathFMA reports whether the call is math.FMA.
func isMathFMA(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "math" && obj.Name() == "FMA"
}

// floatAccumulations returns the float destinations the statement
// accumulates into: every float left side of a += or -=, or the single
// destination of a fused step x = math.FMA(a, b, x), whose addend is the
// destination itself.
func floatAccumulations(pass *Pass, as *ast.AssignStmt) []ast.Expr {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		var out []ast.Expr
		for _, lhs := range as.Lhs {
			if tv, ok := pass.TypesInfo.Types[lhs]; ok && isFloat(tv.Type) {
				out = append(out, lhs)
			}
		}
		return out
	case token.ASSIGN:
		if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return nil
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || len(call.Args) != 3 || !isMathFMA(pass, call) {
			return nil
		}
		if types.ExprString(ast.Unparen(call.Args[2])) == types.ExprString(ast.Unparen(as.Lhs[0])) {
			return as.Lhs
		}
	}
	return nil
}
