package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"

	"gputopo/internal/lint/load"
)

// DirectiveAnalyzer is the pseudo-analyzer name under which the driver
// reports malformed, unknown or stale //lint:ignore directives. Those
// findings cannot themselves be suppressed.
const DirectiveAnalyzer = "lintignore"

// directivePrefix is the comment form topolint honors:
//
//	//lint:ignore analyzer[,analyzer...] justification
//
// The directive is scoped to the line it trails, or — when it stands
// alone — to the line immediately below it. The justification is
// mandatory: an unexplained suppression is itself a finding.
const directivePrefix = "//lint:ignore"

type directive struct {
	names   []string
	reason  string
	file    string
	line    int // line the directive text is on
	applies int // line whose diagnostics it suppresses
	pos     token.Position
	used    bool
}

func (d *directive) nameList() string { return strings.Join(d.names, ",") }

// collectDirectives scans one package's comments for //lint:ignore
// directives. Malformed ones (missing justification, a name that is not
// in known — the whole registry, not just the analyzers this run
// selected) are returned as diagnostics so they fail the run instead of
// silently suppressing nothing.
func collectDirectives(pkg *load.Package, known map[string]bool) ([]*directive, []Diagnostic) {
	var dirs []*directive
	var diags []Diagnostic
	for _, file := range pkg.Syntax {
		codeLines := lineSet(pkg, file)
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:ignored — not ours
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					diags = append(diags, Diagnostic{
						Analyzer: DirectiveAnalyzer,
						Pos:      pos,
						Message:  "malformed directive: want //lint:ignore analyzer[,analyzer] justification",
					})
					continue
				}
				names := strings.Split(fields[0], ",")
				bad := false
				for _, n := range names {
					if n == "" || !known[n] {
						diags = append(diags, Diagnostic{
							Analyzer: DirectiveAnalyzer,
							Pos:      pos,
							Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q", n),
						})
						bad = true
					}
				}
				if bad {
					continue
				}
				d := &directive{
					names:  names,
					reason: strings.Join(fields[1:], " "),
					file:   pos.Filename,
					line:   pos.Line,
					pos:    pos,
				}
				// Trailing comment suppresses its own line; a directive
				// alone on a line suppresses the next one.
				if codeLines[d.line] {
					d.applies = d.line
				} else {
					d.applies = d.line + 1
				}
				dirs = append(dirs, d)
			}
		}
	}
	return dirs, diags
}

// lineSet records which lines of file hold code tokens (identifiers,
// literals, keywords with positions), so a directive can tell whether
// it trails code or stands alone.
func lineSet(pkg *load.Package, file *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.File, *ast.Comment, *ast.CommentGroup:
			return true
		}
		lines[pkg.Fset.Position(n.Pos()).Line] = true
		return true
	})
	return lines
}
