// Command topolint runs the repo's analyzer suite (internal/lint): the
// invariant checks that keep sweeps deterministic (detmap, seedflow),
// time injected (wallclock), the package DAG layered (layering), the
// serving wire types canonical (wiretypes), internal code reachable from
// shipped code (deadcode), plus stdlib-grade checks (nilness, sortslice,
// unusedwrite).
//
//	topolint ./...                        lint the whole module
//	topolint -list                        list the analyzers
//	topolint -analyzers detmap,seedflow ./internal/sweep
//	topolint -v ./...                     also list justified suppressions
//
// Exit status: 0 clean, 1 diagnostics reported, 2 usage or load errors.
//
// deadcode needs the whole module, so it runs only on `topolint ./...`
// from the module root; partial patterns skip it.
// Suppression uses scoped, justified //lint:ignore directives; see
// docs/linting.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"gputopo/internal/lint"
	"gputopo/internal/lint/analysis"
	"gputopo/internal/lint/driver"
	"gputopo/internal/lint/load"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list      = fs.Bool("list", false, "list the analyzers and exit")
		only      = fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
		verbose   = fs.Bool("v", false, "also list findings silenced by justified //lint:ignore directives")
		changeDir = fs.String("C", ".", "directory to resolve package patterns in")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stdout, "%-12s %s\n", driver.DirectiveAnalyzer,
			"(built-in) rejects malformed, unknown-name, unjustified or stale //lint:ignore directives")
		return 0
	}
	if *only != "" {
		matched, unknown := lint.ByName(strings.Split(*only, ","))
		if len(unknown) > 0 {
			fmt.Fprintf(stderr, "topolint: unknown analyzer(s): %s (see -list)\n", strings.Join(unknown, ", "))
			return 2
		}
		analyzers = matched
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if !wholeModule(*changeDir, patterns) {
		analyzers = perPackage(analyzers)
	}
	pkgs, err := load.Load(*changeDir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "topolint: %v\n", err)
		return 2
	}
	res, err := driver.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "topolint: %v\n", err)
		return 2
	}
	driver.Format(stdout, res, *verbose)
	if len(res.Diags) > 0 {
		fmt.Fprintf(stderr, "topolint: %d diagnostic(s) in %d package(s)\n", len(res.Diags), len(pkgs))
		return 1
	}
	return 0
}

// wholeModule reports whether patterns name every package of the module
// rooted at dir: `./...` run from the directory holding go.mod.
func wholeModule(dir string, patterns []string) bool {
	if len(patterns) != 1 || patterns[0] != "./..." {
		return false
	}
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}

// perPackage drops the module-level analyzers (deadcode), which would
// report false positives on a run that sees only part of the module.
func perPackage(analyzers []*analysis.Analyzer) []*analysis.Analyzer {
	var out []*analysis.Analyzer
	for _, a := range analyzers {
		if a.RunModule == nil {
			out = append(out, a)
		}
	}
	return out
}
