// Package deadcode implements the `deadcode` analyzer: every
// package-level function and method declared in a non-test file of an
// `internal/` package must be referenced by some non-test file of the
// module, outside its own body. Go forbids importing an `internal/`
// package from outside the module, so for those packages "no shipped
// file in the module calls this" is exact: the code is dead.
//
// References are matched across packages by (package path, receiver
// type name, name), with generic instantiations folded to their origin;
// a method value or function value counts like a call. A method whose
// name belongs to any interface type in the loaded import closure
// counts as referenced, since it may be reached through that interface
// (sort.Interface, json.Marshaler, a scheduler's Clock) — conservative
// by design.
//
// The analyzer needs every package at once, so it only runs when the
// whole module is loaded.
package deadcode

import (
	"go/ast"
	"go/types"
	"strings"

	"gputopo/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name:      "deadcode",
	Doc:       "reports internal functions and methods that no non-test file in the module references",
	RunModule: run,
}

// key names a function across packages: objects loaded from export data
// are distinct from the source-checked ones, so pointers cannot match.
type key struct{ pkg, recv, name string }

func keyOf(fn *types.Func) key {
	fn = fn.Origin()
	k := key{name: fn.Name()}
	if fn.Pkg() != nil {
		k.pkg = fn.Pkg().Path()
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := types.Unalias(t).(*types.Named); ok {
			k.recv = n.Obj().Name()
		}
	}
	return k
}

func run(passes []*analysis.Pass) error {
	refs := make(map[key]bool)
	ifaceMethods := make(map[string]bool)
	seen := make(map[*types.Package]bool)
	addMethods(types.Universe.Lookup("error").Type(), ifaceMethods)
	for _, pass := range passes {
		addInterfaces(pass.Pkg, ifaceMethods, seen)
		for _, tv := range pass.TypesInfo.Types {
			addMethods(tv.Type, ifaceMethods)
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				var self key
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
						self = keyOf(fn)
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok {
							if k := keyOf(fn); k != self {
								refs[k] = true
							}
						}
					}
					return true
				})
			}
		}
	}
	for _, pass := range passes {
		if !internal(pass.Pkg.Path()) {
			continue
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || root(pass.Pkg, fd) {
					continue
				}
				fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				k := keyOf(fn)
				if refs[k] || (k.recv != "" && ifaceMethods[k.name]) {
					continue
				}
				name := k.name
				if k.recv != "" {
					name = k.recv + "." + name
				}
				pass.ReportfFix(fd.Name.Pos(),
					"delete it, or keep it with //lint:ignore deadcode <reason>",
					"%s is dead: no non-test file in the module references it", name)
			}
		}
	}
	return nil
}

// root reports whether the toolchain calls fd itself: init, blank
// functions, and a main package's main.
func root(pkg *types.Package, fd *ast.FuncDecl) bool {
	if fd.Recv != nil {
		return false
	}
	switch fd.Name.Name {
	case "init", "_":
		return true
	case "main":
		return pkg.Name() == "main"
	}
	return false
}

// addInterfaces records the method names of every package-level
// interface type in pkg and everything it imports.
func addInterfaces(pkg *types.Package, names map[string]bool, seen map[*types.Package]bool) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, n := range scope.Names() {
		if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
			addMethods(tn.Type(), names)
		}
	}
	for _, imp := range pkg.Imports() {
		addInterfaces(imp, names, seen)
	}
}

func addMethods(t types.Type, names map[string]bool) {
	if t == nil {
		return
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			names[iface.Method(i).Name()] = true
		}
	}
}

// internal reports whether path has an `internal` element, which Go
// makes importable only from within the module.
func internal(path string) bool {
	return strings.Contains("/"+path+"/", "/internal/")
}
