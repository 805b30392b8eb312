// Package analysis is a minimal, dependency-free re-statement of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics. The repo
// cannot vendor x/tools (the module is deliberately dependency-free), so
// topolint's analyzers are written against this clean-room subset instead;
// the shapes match the upstream API closely enough that porting an
// analyzer either way is mechanical.
//
// Only the pieces the topolint suite needs exist: no Facts, no
// Requires/ResultOf plumbing, no SSA. Analyzers that want deeper
// semantic information work directly from go/types; one that needs every
// package at once sets RunModule instead of Run.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. It must be a valid identifier.
	Name string

	// Doc is a one-paragraph description of what the analyzer
	// enforces and why; the first line is the summary.
	Doc string

	// Run applies the analyzer to one package. Diagnostics go through
	// pass.Report*; a non-nil error aborts the whole topolint run (use
	// it for internal failures, never for findings).
	Run func(*Pass) error

	// RunModule, set instead of Run, applies the analyzer to every
	// loaded package at once. Such an analyzer is only sound when the
	// passes cover the whole module, so drivers skip it on partial runs.
	RunModule func([]*Pass) error
}

// Apply runs a on passes: once over all of them for a module-level
// analyzer, otherwise once per pass.
func (a *Analyzer) Apply(passes []*Pass) error {
	if a.RunModule != nil {
		return a.RunModule(passes)
	}
	for _, p := range passes {
		if err := a.Run(p); err != nil {
			return fmt.Errorf("%s: %v", p.Pkg.Path(), err)
		}
	}
	return nil
}

// Pass hands an Analyzer one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver owns suppression,
	// ordering and formatting.
	Report func(Diagnostic)
}

// Diagnostic is one finding, anchored to a position in the package.
type Diagnostic struct {
	Pos     token.Pos
	Message string

	// Fix, when non-empty, is a human-readable suggested fix printed
	// beneath the diagnostic ("route time through the Clock", …).
	Fix string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: sprintf(format, args...)})
}

// ReportfFix reports a formatted diagnostic carrying a suggested fix.
func (p *Pass) ReportfFix(pos token.Pos, fix string, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: sprintf(format, args...), Fix: fix})
}

// Inspect walks every file of the pass in depth-first order, calling f
// exactly as ast.Inspect does.
func (p *Pass) Inspect(f func(ast.Node) bool) {
	for _, file := range p.Files {
		ast.Inspect(file, f)
	}
}

// WithStack walks every file keeping the ancestor stack: f is invoked
// with the node and the path of its ancestors, outermost first (the
// node itself is not on the stack). Returning false prunes the subtree.
func (p *Pass) WithStack(f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			descend := f(n, stack)
			if descend {
				stack = append(stack, n)
			}
			return descend
		})
	}
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// ObjectOf resolves an identifier to its object (use or definition).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// CalleeFunc resolves a call expression to the *types.Func it invokes,
// looking through parentheses. It returns nil for calls of function
// values, type conversions and built-ins.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.ObjectOf(id).(*types.Func)
	return fn
}

// RootIdent returns the identifier at the base of a chain of selector,
// index and paren expressions (a.b[i].c → a), or nil.
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func sprintf(format string, args ...any) string {
	if len(args) == 0 {
		return format
	}
	return fmt.Sprintf(format, args...)
}
