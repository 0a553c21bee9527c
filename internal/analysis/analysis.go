// Package analysis is the repository's static-analysis suite: a small
// go/analysis-shaped framework plus the five plmvet analyzers that turn the
// paper's exactness-and-consistency contract into machine-checked rules.
//
// The reproduction's headline guarantee — the closed-form (W, b) extracted
// for a linear region is bit-identical to the hidden model's decision
// function — survives only while every layer of the system preserves it:
// the GEMM kernels must keep one ascending-k accumulator per output
// element, nothing on the bit-identity paths may consult ambient
// nondeterminism (wall clock, global RNG, fused multiply-add), ordered
// output must never be derived from map iteration, and the serving stack's
// counters and locks must stay race-free under load. PRs 3–5 defended
// those invariants with parity tests and hand-picked -race runs; the
// analyzers here prove them on every diff instead.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) so the passes read like standard vet checks
// and could be ported to the real framework wholesale; it is reimplemented
// on the standard library alone because this repository builds offline with
// no module dependencies.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check. It is the stdlib-only analogue of
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //plmvet:allow(name) annotations.
	Name string
	// Doc is the one-paragraph description printed by plmvet -help.
	Doc string
	// Run performs the check over one package and reports findings via
	// pass.Report.
	Run func(pass *Pass) error
}

// Pass hands one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records one finding.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether the file a position belongs to is a _test.go
// file. The plmvet contracts govern shipped code; tests are free to use
// clocks, global randomness and manual lock choreography.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// Diagnostic is one finding: a position and a human-readable message. The
// reporting analyzer's name is attached by the driver.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// NewTypesInfo returns a types.Info with every map the analyzers consult
// allocated. All three drivers (standalone, vet-tool, test harness) share
// it so an analyzer never finds a nil map in one mode that was populated in
// another.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// All returns the plmvet analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Detfloat, Atomicfield, Lockheld, Kernelpurity, Roundedproduct}
}

// ByName resolves a comma-separated analyzer selection ("detfloat,lockheld")
// against the suite; an empty selection means all of them.
func ByName(selection string) ([]*Analyzer, error) {
	if selection == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(selection, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunAnalyzers applies each analyzer to the package and returns the
// surviving diagnostics: findings suppressed by a //plmvet:allow annotation
// (see allow.go) are dropped, and every kept diagnostic carries its
// analyzer's name.
func RunAnalyzers(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	allows := collectAllows(fset, files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		pass.Report = func(d Diagnostic) {
			d.Analyzer = a.Name
			if allows.allowed(fset, d) {
				return
			}
			out = append(out, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
		}
	}
	return out, nil
}
