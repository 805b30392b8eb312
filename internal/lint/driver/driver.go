// Package driver runs a set of analyzers over loaded packages, applies
// //lint:ignore suppressions, and renders the surviving diagnostics.
// It is the engine behind cmd/topolint.
package driver

import (
	"fmt"
	"go/token"
	"io"
	"sort"

	"gputopo/internal/lint"
	"gputopo/internal/lint/analysis"
	"gputopo/internal/lint/load"
)

// Diagnostic is one finding, resolved to a concrete file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	Fix      string

	// SuppressedBy holds the justification when a //lint:ignore
	// directive silenced this diagnostic.
	SuppressedBy string
}

// Result is the outcome of one Run.
type Result struct {
	// Diags are the live findings, sorted by file, line, column,
	// analyzer. Any entry means the lint run failed.
	Diags []Diagnostic

	// Suppressed are findings silenced by a justified //lint:ignore,
	// kept for reporting (the suppression count is part of the
	// contract: suppressions are visible, never free).
	Suppressed []Diagnostic
}

// Run applies every analyzer to every package: a per-package analyzer
// once per package, a module-level one once over all of them. Packages
// with type errors fail the run: analyzer silence on a half-checked
// package proves nothing.
func Run(pkgs []*load.Package, analyzers []*analysis.Analyzer) (Result, error) {
	var res Result
	known := make(map[string]bool)
	for _, a := range lint.All() {
		known[a.Name] = true
	}
	var dirs []*directive
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			return res, fmt.Errorf("%s does not type-check: %v", pkg.ImportPath, pkg.TypeErrors[0])
		}
		pkgDirs, dirDiags := collectDirectives(pkg, known)
		dirs = append(dirs, pkgDirs...)
		res.Diags = append(res.Diags, dirDiags...)
	}
	var raw []Diagnostic
	for _, a := range analyzers {
		passes := make([]*analysis.Pass, len(pkgs))
		for i, pkg := range pkgs {
			passes[i] = &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Report: func(d analysis.Diagnostic) {
					raw = append(raw, Diagnostic{
						Analyzer: a.Name,
						Pos:      pkg.Fset.Position(d.Pos),
						Message:  d.Message,
						Fix:      d.Fix,
					})
				},
			}
		}
		if err := a.Apply(passes); err != nil {
			return res, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
	}
	for _, d := range raw {
		if dir := match(dirs, d); dir != nil {
			dir.used = true
			d.SuppressedBy = dir.reason
			res.Suppressed = append(res.Suppressed, d)
			continue
		}
		res.Diags = append(res.Diags, d)
	}
	// A directive that suppresses nothing is stale and must go: it
	// would silently swallow a future, different finding on its
	// line. Only enforced when every analyzer it names actually
	// ran, so partial -analyzers runs cannot produce false alarms.
	for _, dir := range dirs {
		if dir.used {
			continue
		}
		ran := true
		for _, n := range dir.names {
			if !ranAnalyzer(analyzers, n) {
				ran = false
				break
			}
		}
		if ran {
			res.Diags = append(res.Diags, Diagnostic{
				Analyzer: DirectiveAnalyzer,
				Pos:      dir.pos,
				Message:  fmt.Sprintf("//lint:ignore %s suppresses nothing; delete the stale directive", dir.nameList()),
			})
		}
	}
	sortDiags(res.Diags)
	sortDiags(res.Suppressed)
	return res, nil
}

func ranAnalyzer(analyzers []*analysis.Analyzer, name string) bool {
	for _, a := range analyzers {
		if a.Name == name {
			return true
		}
	}
	return false
}

func match(dirs []*directive, d Diagnostic) *directive {
	for _, dir := range dirs {
		if dir.file != d.Pos.Filename || dir.applies != d.Pos.Line {
			continue
		}
		for _, n := range dir.names {
			if n == d.Analyzer {
				return dir
			}
		}
	}
	return nil
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Format renders a result the way `go vet` renders findings:
// file:line:col: [analyzer] message, one per line, with suggested
// fixes indented beneath. With verbose set it also accounts for
// justified suppressions.
func Format(w io.Writer, res Result, verbose bool) {
	for _, d := range res.Diags {
		fmt.Fprintf(w, "%s: [%s] %s\n", d.Pos, d.Analyzer, d.Message)
		if d.Fix != "" {
			fmt.Fprintf(w, "\tfix: %s\n", d.Fix)
		}
	}
	if verbose {
		for _, d := range res.Suppressed {
			fmt.Fprintf(w, "%s: [%s] suppressed (%s): %s\n", d.Pos, d.Analyzer, d.SuppressedBy, d.Message)
		}
	}
	if n := len(res.Suppressed); n > 0 && !verbose {
		fmt.Fprintf(w, "%d finding(s) suppressed by //lint:ignore (rerun with -v to list them)\n", n)
	}
}
