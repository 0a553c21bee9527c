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

// Roundedproduct flags a float product that feeds an add or subtract
// unconverted: x + a*b, x - a*b, a*b - x, s += a*b, s -= a*b.
//
// The Go spec lets a compiler fuse such a pair into one multiply-add with a
// single rounding, unless an explicit conversion rounds the product first
// ("An explicit floating-point type conversion rounds to the precision of
// the target type, preventing fusion"). The arm64 compiler does fuse, and
// amd64 does not, so without the conversion the scalar Go loops round once
// per step on arm64 where every vector kernel rounds twice — and the
// tiers stop agreeing bit for bit. The sanctioned shape is float64(a*b)
// (float32(a*b) for float32 operands). The check is syntactic: a product
// stored in a variable and added in a later statement can be fused too,
// which the CI step that scans the arm64 assembly for fused instructions
// catches.
var Roundedproduct = &Analyzer{
	Name: "roundedproduct",
	Doc: "a float product feeding an add or subtract must be converted " +
		"(float64(a*b)) so the compiler cannot fuse the pair into one rounding",
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

// reportFloatProduct reports e if it is a non-constant float product.
func reportFloatProduct(pass *Pass, e ast.Expr) {
	mul, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || mul.Op != token.MUL {
		return
	}
	tv, ok := pass.TypesInfo.Types[mul]
	if !ok || tv.Value != nil || !isFloat(tv.Type) {
		return
	}
	name := types.TypeString(tv.Type, func(*types.Package) string { return "" })
	pass.Reportf(mul.Pos(), "float product feeding an add or subtract may be fused into one rounding (arm64 fuses); convert it: %s(…*…)", name)
}
