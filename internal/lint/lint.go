// Package lint is the registry for the topolint analyzer suite.
//
// The suite mechanically enforces the load-bearing invariants listed in
// docs/architecture.md — determinism of iteration and seeding, clock
// injection, the package layering DAG, and serving wire-type discipline
// — plus stdlib-grade correctness checks (nilness, unusedwrite,
// sortslice). See docs/linting.md for the analyzer-by-analyzer
// reference and the suppression protocol.
package lint

import (
	"gputopo/internal/lint/analysis"
	"gputopo/internal/lint/deadcode"
	"gputopo/internal/lint/detmap"
	"gputopo/internal/lint/layering"
	"gputopo/internal/lint/nilness"
	"gputopo/internal/lint/seedflow"
	"gputopo/internal/lint/sortslice"
	"gputopo/internal/lint/unusedwrite"
	"gputopo/internal/lint/wallclock"
	"gputopo/internal/lint/wiretypes"
)

// All returns every analyzer in the suite, in stable name order. The
// returned slice is fresh on each call; callers may filter it.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		deadcode.Analyzer,
		detmap.Analyzer,
		layering.Analyzer,
		nilness.Analyzer,
		seedflow.Analyzer,
		sortslice.Analyzer,
		unusedwrite.Analyzer,
		wallclock.Analyzer,
		wiretypes.Analyzer,
	}
}

// ByName returns the subset of All() whose names appear in names, in
// registry order, plus the list of names that matched nothing.
func ByName(names []string) (matched []*analysis.Analyzer, unknown []string) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	for _, a := range All() {
		if want[a.Name] {
			matched = append(matched, a)
			delete(want, a.Name)
		}
	}
	for _, n := range names {
		if want[n] {
			unknown = append(unknown, n)
			want[n] = false
		}
	}
	return matched, unknown
}
