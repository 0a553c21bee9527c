package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Kernelpurity guards the documented shape of the GEMM kernels in
// internal/mat: the pure-Go fallback of every assembly-backed inner product
// must accumulate in ascending k with one rounding chain per output
// element, because that is the order every microkernel in the tier ladder
// (NEON, AVX2, AVX-512) commits to and the whole cross-tier bit-identity
// argument rests on all paths performing the same additions in the same
// sequence.
//
// Three shapes are flagged in the gemm*.go files. An accumulation is a
// float += or -=, or the fused step x = math.FMA(a, b, x) the kernels take
// per product (roundedproduct requires it).
//
//  1. Descending accumulation: a for loop stepping its variable downward
//     while accumulating into a float. Reversing the k loop reorders the
//     additions and changes the rounded result.
//  2. Partial-sum recombination: adding together two variables that were
//     each accumulated inside a loop. Splitting one output element's
//     sum into lanes and combining at the end is the classic vectorization
//     move — and exactly the reassociation that breaks bit-identity.
//     (Distinct accumulators for distinct output elements, as in the 4x4
//     microkernel's s00..s31, are fine: they are never added to each
//     other.)
//  3. Float reductions inside epilogue hooks (functions named after or
//     methods on Epilogue): the fused epilogue is per-element
//     post-accumulation work only; a running scalar sum there re-enters the
//     reduction the GEMM has already committed.
var Kernelpurity = &Analyzer{
	Name: "kernelpurity",
	Doc: "GEMM fallback kernels must keep the ascending-k single-accumulator " +
		"shape that makes them bit-identical to the assembly path",
	Run: runKernelpurity,
}

func runKernelpurity(pass *Pass) error {
	if pass.Pkg.Path() != "repro/internal/mat" {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		name := filepath.Base(pass.Fset.File(f.Pos()).Name())
		if !strings.HasPrefix(name, "gemm") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkKernelFunc(pass, fd)
		}
	}
	return nil
}

func checkKernelFunc(pass *Pass, fd *ast.FuncDecl) {
	epilogue := epilogueHook(pass, fd)
	// Accumulators: identifiers that accumulate a float inside any loop.
	// Nested loops revisit inner assignments, so epilogue reports dedupe by
	// position.
	accumulators := make(map[types.Object]bool)
	reported := make(map[token.Pos]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		loopBody := loopBodyOf(n)
		if loopBody == nil {
			return true
		}
		if descendingLoop(n) && accumulatesFloat(pass, loopBody) {
			pass.Reportf(n.Pos(), "descending-index accumulation reorders the additions; kernels must accumulate in ascending k to stay bit-identical to the assembly path")
		}
		ast.Inspect(loopBody, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range floatAccumulations(pass, as) {
				ident, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				if obj := pass.TypesInfo.Uses[ident]; obj != nil {
					if epilogue && !reported[as.Pos()] {
						reported[as.Pos()] = true
						pass.Reportf(as.Pos(), "epilogue hooks are per-element post-accumulation only; a running float reduction here re-enters the summation the GEMM already committed")
					}
					accumulators[obj] = true
				}
			}
			return true
		})
		return true
	})
	if len(accumulators) < 2 {
		return
	}
	// Recombination: an x + y whose operands are two distinct loop
	// accumulators.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != token.ADD {
			return true
		}
		x := accumulatorOf(pass, accumulators, be.X)
		y := accumulatorOf(pass, accumulators, be.Y)
		if x != nil && y != nil && x != y {
			pass.Reportf(be.Pos(), "adding partial sums %s and %s reassociates the reduction; each output element must be one ascending accumulation chain", x.Name(), y.Name())
		}
		return true
	})
}

// epilogueHook reports whether fd is fused-epilogue code: a function whose
// name references Epilogue (applyEpilogueRows, MulBTIntoEpilogue — which
// only delegates its reduction to gemmBT) or a method on the Epilogue type.
// gemmBT itself merely takes an *Epilogue parameter and is not a hook — its
// accumulator chains are the reduction.
func epilogueHook(pass *Pass, fd *ast.FuncDecl) bool {
	if strings.Contains(fd.Name.Name, "Epilogue") {
		return true
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[fd.Recv.List[0].Type]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Epilogue"
}

// loopBodyOf returns the body of a for or range statement, or nil.
func loopBodyOf(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.ForStmt:
		return n.Body
	case *ast.RangeStmt:
		return n.Body
	}
	return nil
}

// descendingLoop reports whether the for statement steps its variable
// downward (i-- or i -= step).
func descendingLoop(n ast.Node) bool {
	fs, ok := n.(*ast.ForStmt)
	if !ok {
		return false
	}
	switch post := fs.Post.(type) {
	case *ast.IncDecStmt:
		return post.Tok == token.DEC
	case *ast.AssignStmt:
		return post.Tok == token.SUB_ASSIGN
	}
	return false
}

// accumulatesFloat reports whether the block accumulates into a float.
func accumulatesFloat(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(floatAccumulations(pass, as)) > 0 {
			found = true
		}
		return !found
	})
	return found
}

// accumulatorOf resolves an operand to a known accumulator object, or nil.
func accumulatorOf(pass *Pass, accs map[types.Object]bool, e ast.Expr) types.Object {
	ident, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.Uses[ident]
	if obj != nil && accs[obj] {
		return obj
	}
	return nil
}
