// Package layering implements the `layering` analyzer: it enforces the
// import DAG drawn in docs/architecture.md. Every package in the module
// is assigned to a named layer with a numeric rank; an import of a
// module package is legal only when it points at a strictly lower rank.
// That single rule encodes the invariants that matter here — the
// scheduling core (`internal/schedcore`) never imports an engine, the
// sweep engine never imports a front-end, serve handlers sit above the
// wire-type package they must speak — and it survives refactors: a new
// package fails the build until it is placed in the table (and, by
// review convention, in docs/architecture.md).
//
// The core's purity gets one extra tooth: packages listed in
// ForbiddenStd must not import I/O-shaped standard library packages at
// all.
package layering

import (
	"strconv"
	"strings"

	"gputopo/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "layering",
	Doc:  "enforces the docs/architecture.md import DAG: imports must point at strictly lower layers",
	Run:  run,
}

// Module is the module path prefix the DAG governs.
var Module = "gputopo"

// Layer couples a rank with the human name used in diagnostics.
type Layer struct {
	Rank int
	Name string
}

// Ranks places every module package. The ordering mirrors the layer
// diagram in docs/architecture.md (substrate → models → scheduling →
// engines → evaluation → front-ends); gaps leave room for new layers.
var Ranks = map[string]Layer{
	"gputopo/internal/graph": {100, "substrate"},
	"gputopo/internal/stats": {100, "substrate"},

	"gputopo/internal/topology": {200, "substrate"},
	"gputopo/internal/fm":       {200, "substrate"},
	"gputopo/internal/jobgraph": {200, "models"},

	"gputopo/internal/perfmodel": {300, "models"},

	"gputopo/internal/job":     {400, "models"},
	"gputopo/internal/cluster": {400, "scheduling"},
	"gputopo/internal/profile": {400, "models"},

	"gputopo/internal/core":     {500, "scheduling"},
	"gputopo/internal/workload": {500, "evaluation"},
	"gputopo/internal/serveapi": {500, "serving wire types"},

	"gputopo/internal/schedcore": {600, "scheduling core"},
	"gputopo/internal/eventlog":  {600, "serving durability"},

	"gputopo/internal/schedcore/domains": {650, "scheduling domains"},

	"gputopo/internal/simulator": {800, "engines"},

	"gputopo/internal/metrics": {900, "evaluation"},

	"gputopo/internal/sweep": {1000, "evaluation"},

	"gputopo/internal/experiments":     {1100, "front-ends"},
	"gputopo/internal/serve":           {1100, "front-ends"},
	"gputopo/internal/serveapi/client": {1100, "front-ends"},

	"gputopo": {1150, "public facade"},

	// The scheduler no longer uses the place cache; only the frozen
	// cmd/topoperf compiles against it (docs/performance.md, "The frozen
	// benchmark contract"). Ranked above every product package so that
	// importing it again is a layering violation.
	"gputopo/internal/schedcore/placecache": {1195, "benchmark-pinned residue"},
}

// PrefixRanks places whole subtrees. Binaries and examples sit above
// everything; the lint suite sits just below them (cmd/topolint is its
// only consumer) and outside the scheduling DAG — no scheduling package
// may import it, and it imports none of them.
var PrefixRanks = []struct {
	Prefix string
	Layer  Layer
}{
	{"gputopo/cmd/", Layer{1200, "binaries"}},
	{"gputopo/examples/", Layer{1200, "examples"}},
	{"gputopo/internal/lint", Layer{1190, "lint suite"}},
}

// IntraPrefixes lists subtrees whose members may import each other
// freely: the lint suite is one tool, not a layered system.
var IntraPrefixes = []string{"gputopo/internal/lint"}

// ForbiddenStd bars I/O-shaped stdlib imports from pure packages: the
// scheduling core performs no I/O by contract (docs/architecture.md,
// "The scheduling core is pure and single-writer").
var ForbiddenStd = map[string][]string{
	"gputopo/internal/schedcore":         {"os", "io", "net", "net/http", "bufio", "os/exec", "syscall"},
	"gputopo/internal/schedcore/domains": {"os", "io", "net", "net/http", "bufio", "os/exec", "syscall"},
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	my, ok := rankOf(path)
	if !ok {
		// Report once, on each file's package clause, so the finding
		// survives file-level suppression review.
		for _, f := range pass.Files {
			pass.Reportf(f.Name.Pos(),
				"package %s is not in the layering table; add it to internal/lint/layering and docs/architecture.md", path)
		}
		return nil
	}
	forbidden := ForbiddenStd[path]
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			ipath, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			for _, bad := range forbidden {
				if ipath == bad {
					pass.Reportf(imp.Pos(),
						"%s is pure by contract and must not import %q (no I/O in the scheduling core)", path, ipath)
				}
			}
			if !inModule(ipath) {
				continue
			}
			ir, ok := rankOf(ipath)
			if !ok {
				pass.Reportf(imp.Pos(),
					"import %s is not in the layering table; add it to internal/lint/layering and docs/architecture.md", ipath)
				continue
			}
			if ir.Rank >= my.Rank && !intra(path, ipath) {
				pass.Reportf(imp.Pos(),
					"layering violation: %s (%s, rank %d) must not import %s (%s, rank %d); imports may only point at strictly lower layers",
					path, my.Name, my.Rank, ipath, ir.Name, ir.Rank)
			}
		}
	}
	return nil
}

// intra reports whether both packages live in one IntraPrefixes
// subtree, where same-rank imports are allowed.
func intra(a, b string) bool {
	for _, p := range IntraPrefixes {
		if (a == p || strings.HasPrefix(a, p+"/")) && (b == p || strings.HasPrefix(b, p+"/")) {
			return true
		}
	}
	return false
}

func inModule(path string) bool {
	return path == Module || strings.HasPrefix(path, Module+"/")
}

func rankOf(path string) (Layer, bool) {
	if l, ok := Ranks[path]; ok {
		return l, true
	}
	for _, pr := range PrefixRanks {
		if strings.HasPrefix(path, pr.Prefix) || path == strings.TrimSuffix(pr.Prefix, "/") {
			return pr.Layer, true
		}
	}
	return Layer{}, false
}
