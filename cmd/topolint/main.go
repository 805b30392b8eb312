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
// The binary also speaks the `go vet -vettool` protocol: it answers the
// -V=full and -flags probes and accepts a JSON vet.cfg unit file, so
//
//	go vet -vettool=$(which topolint) ./...
//
// runs the same suite under the vet driver, one package unit at a time.
// deadcode needs the whole module, so it runs only on `topolint ./...`
// from the module root; partial patterns and vet units skip it.
// Suppression uses scoped, justified //lint:ignore directives; see
// docs/linting.md.
package main

import (
	"crypto/sha256"
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
	// go vet probes its vettool before handing it work: -V=full asks
	// for a cache-keyable identity, -flags for pass-through flag defs.
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full":
			fmt.Fprintf(stdout, "topolint version devel buildID=%s\n", buildID())
			return 0
		case args[0] == "-flags":
			fmt.Fprintln(stdout, "[]")
			return 0
		case strings.HasSuffix(args[0], ".cfg"):
			return runUnit(args[0], stderr)
		}
	}

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

// buildID fingerprints the running executable so `go vet` can cache
// results keyed on the tool's identity, invalidating when the binary
// changes.
func buildID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}
