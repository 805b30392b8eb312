// Package analysistest runs one analyzer over fixture packages under a
// testdata/src tree and checks its diagnostics against `// want`
// comments, mirroring golang.org/x/tools/go/analysis/analysistest:
//
//	s += v // want `float accumulation`
//
// Each `// want` holds one or more quoted or backquoted regular
// expressions; every diagnostic on that line must match one of them, in
// order, and every expectation must be consumed. Fixtures are real
// packages in the module (go list loads explicit testdata paths even
// though ./... skips them), so they must compile — deliberately broken
// *semantics*, valid Go.
package analysistest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"gputopo/internal/lint/analysis"
	"gputopo/internal/lint/load"
)

type expectation struct {
	rx      *regexp.Regexp
	matched bool
}

// Run loads the fixture packages (paths relative to the test's working
// directory, e.g. "./testdata/src/detmaptest"), applies the analyzer
// raw — no //lint:ignore filtering — and reports every mismatch between
// diagnostics and // want expectations through t. The fixtures are
// loaded together, so a module-level analyzer sees them as its whole
// module.
//
//lint:ignore deadcode test harness: every analyzer's fixture test runs through it
func Run(t *testing.T, a *analysis.Analyzer, fixtures ...string) {
	t.Helper()
	pkgs, err := load.Load(".", fixtures...)
	if err != nil {
		t.Fatalf("loading fixtures %v: %v", fixtures, err)
	}
	wants := make(map[string][]*expectation)
	passes := make([]*analysis.Pass, len(pkgs))
	for i, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("fixture %s does not type-check: %v", pkg.ImportPath, pkg.TypeErrors[0])
		}
		collectWants(t, pkg, wants)
		passes[i] = &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Report: func(d analysis.Diagnostic) {
				p := pkg.Fset.Position(d.Pos)
				for _, w := range wants[fmt.Sprintf("%s:%d", p.Filename, p.Line)] {
					if !w.matched && w.rx.MatchString(d.Message) {
						w.matched = true
						return
					}
				}
				t.Errorf("%s: unexpected diagnostic: %s", p, d.Message)
			},
		}
	}
	if err := a.Apply(passes); err != nil {
		t.Fatalf("analyzer %s failed: %v", a.Name, err)
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no diagnostic matching %q", key, w.rx)
			}
		}
	}
}

// collectWants adds pkg's `// want "rx" `rx`...` comments to wants,
// keyed by "file:line".
func collectWants(t *testing.T, pkg *load.Package, wants map[string][]*expectation) {
	t.Helper()
	for _, file := range pkg.Syntax {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				p := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
				for _, rxText := range splitQuoted(t, p.String(), text) {
					rx, err := regexp.Compile(rxText)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", p, rxText, err)
					}
					wants[key] = append(wants[key], &expectation{rx: rx})
				}
			}
		}
	}
}

// splitQuoted extracts consecutive Go-quoted or backquoted strings.
func splitQuoted(t *testing.T, at, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' && s[0] != '`' {
			t.Fatalf("%s: malformed // want: expected quoted regexp at %q", at, s)
		}
		quote := s[0]
		end := 1
		for end < len(s) {
			if s[end] == quote && (quote == '`' || s[end-1] != '\\') {
				break
			}
			end++
		}
		if end == len(s) {
			t.Fatalf("%s: malformed // want: unterminated %q", at, s)
		}
		lit := s[:end+1]
		unq, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: malformed // want literal %q: %v", at, lit, err)
		}
		out = append(out, unq)
		s = strings.TrimSpace(s[end+1:])
	}
	return out
}
