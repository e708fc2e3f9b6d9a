// Package analysis is a self-contained, stdlib-only reimplementation of
// the subset of golang.org/x/tools/go/analysis that graphspar's custom
// analyzers need. The build environment for this repository is fully
// offline, so the canonical x/tools module cannot be added as a
// dependency; the types here mirror its API (Analyzer, Pass,
// Diagnostic) closely enough that the analyzer packages would compile
// against the real framework with only an import-path change if the
// dependency ever becomes available.
//
// Only single-package analyzers are supported: there is no fact
// propagation and no Requires graph. Every graphspar analyzer is
// local-only by design, so neither feature is needed.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one analysis pass: a named check with
// documentation and a Run function invoked once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, flags and reports.
	// It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation. The first line should be a
	// one-sentence summary.
	Doc string

	// Run applies the analyzer to a single package. It may report
	// diagnostics via pass.Report / pass.Reportf. The returned value is
	// ignored by this driver (x/tools uses it for inter-analyzer
	// results, which graphspar's analyzers do not use).
	Run func(pass *Pass) (any, error)
}

// A Pass provides an analyzer's Run function with the parsed and
// type-checked syntax of a single package, and accumulates the
// diagnostics it reports.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report is called for each diagnostic. Drivers install it.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a Sprintf-formatted message.
func (pass *Pass) Reportf(pos token.Pos, format string, args ...any) {
	pass.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is a message associated with a source location.
type Diagnostic struct {
	Pos      token.Pos
	End      token.Pos // optional: end of the flagged region
	Category string    // optional: sub-category within the analyzer
	Message  string
}

// A Unit bundles one parsed, type-checked package — everything a driver
// needs to run analyzers over it.
type Unit struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// Run applies one analyzer to the unit and returns the diagnostics it
// reported, in report order.
func (u *Unit) Run(a *Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      u.Fset,
		Files:     u.Files,
		Pkg:       u.Pkg,
		TypesInfo: u.TypesInfo,
		Report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
	}
	return diags, nil
}

// NewInfo returns a types.Info with every map populated, matching what
// drivers give analyzers.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}
