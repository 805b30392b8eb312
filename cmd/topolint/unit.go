package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"gputopo/internal/lint"
	"gputopo/internal/lint/driver"
	"gputopo/internal/lint/load"
)

// vetConfig is the JSON unit file `go vet` hands its vettool — one
// package compilation unit with pre-resolved import and export-data
// maps. Field set mirrors cmd/go's internal vetConfig.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runUnit executes one `go vet` unit: parse the listed sources,
// type-check them against the supplied export data, run the suite, and
// report plain-text diagnostics on stderr. The (empty) VetxOutput file
// must exist on success or vet treats the tool as crashed — topolint
// computes no cross-package facts, so the file carries no content.
func runUnit(cfgPath string, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(stderr, "topolint: reading vet config: %v\n", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "topolint: parsing vet config %s: %v\n", cfgPath, err)
		return 2
	}

	writeVetx := func() bool {
		if cfg.VetxOutput == "" {
			return true
		}
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(stderr, "topolint: writing vetx output: %v\n", err)
			return false
		}
		return true
	}

	// Facts-only invocations have nothing to do here.
	if cfg.VetxOnly {
		if !writeVetx() {
			return 2
		}
		return 0
	}

	pkg, ok := checkUnit(&cfg, stderr)
	if pkg == nil {
		if ok { // nothing to lint (e.g. all files filtered); still a success
			if !writeVetx() {
				return 2
			}
			return 0
		}
		return 2
	}
	if len(pkg.TypeErrors) > 0 {
		if cfg.SucceedOnTypecheckFailure {
			if !writeVetx() {
				return 2
			}
			return 0
		}
		fmt.Fprintf(stderr, "topolint: %s does not type-check: %v\n", cfg.ImportPath, pkg.TypeErrors[0])
		return 2
	}

	res, err := driver.Run([]*load.Package{pkg}, perPackage(lint.All()))
	if err != nil {
		fmt.Fprintf(stderr, "topolint: %v\n", err)
		return 2
	}
	if !writeVetx() {
		return 2
	}
	if len(res.Diags) > 0 {
		// go vet surfaces vettool stderr verbatim: plain
		// file:line:col lines, no summary footer.
		driver.Format(stderr, res, false)
		return 1
	}
	return 0
}

// checkUnit parses and type-checks the unit's non-test sources. The
// bool result distinguishes "nothing to check" (nil, true) from a hard
// error (nil, false). Test files are excluded on purpose: topolint
// gates shipped sources, matching the standalone loader's policy.
func checkUnit(cfg *vetConfig, stderr io.Writer) (*load.Package, bool) {
	fset := token.NewFileSet()
	pkg := &load.Package{ImportPath: cfg.ImportPath, Dir: cfg.Dir, Fset: fset}
	for _, gf := range cfg.GoFiles {
		if strings.HasSuffix(gf, "_test.go") {
			continue
		}
		path := gf
		if !filepath.IsAbs(path) {
			path = filepath.Join(cfg.Dir, gf)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			fmt.Fprintf(stderr, "topolint: %v\n", err)
			return nil, false
		}
		pkg.GoFiles = append(pkg.GoFiles, path)
		pkg.Syntax = append(pkg.Syntax, f)
	}
	if len(pkg.Syntax) == 0 {
		return nil, true
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	pkg.TypesInfo = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(cfg.ImportPath, fset, pkg.Syntax, pkg.TypesInfo)
	pkg.Types = tpkg
	return pkg, true
}
