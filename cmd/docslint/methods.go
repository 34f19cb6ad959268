package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
)

// lintMethods reports each exported method of a concrete type declared
// in a non-test file of a package under root/internal that no non-test
// Go file of another package calls or takes as a method value. The
// root package, cmd/, the other internal packages and nested modules
// such as perfbench/ all count. It also reports each unexported
// top-level function, and each unexported method of a package-scope
// type, in any package of the module that no non-test Go file uses,
// its own package's included. A method that an interface requires of
// its type is exempt from both: an interface of the module or of a
// standard library package it imports (fmt.Stringer's String,
// sim.Event's Fire), the built-in error's Error, or errors' Unwrap.
func lintMethods(root string) []string {
	module, err := modulePath(root)
	if err != nil {
		return []string{err.Error()}
	}
	m := &moduleChecker{fset: token.NewFileSet(), root: root, module: module, pkgs: map[string]*checkedPkg{}}
	m.std = importer.ForCompiler(m.fset, "gc", nil)
	var out []string
	filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return nil
		}
		if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, p)
		if _, err := m.check(filepath.ToSlash(rel)); err != nil {
			out = append(out, fmt.Sprintf("%s: type check: %v", rel, err))
		}
		return nil
	})
	if len(out) > 0 {
		return out
	}

	// used holds every function a non-test file names; called, those
	// another package names.
	used, called := map[*types.Func]bool{}, map[*types.Func]bool{}
	for _, p := range m.pkgs {
		if p == nil {
			continue
		}
		for _, obj := range p.uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
				if fn.Pkg() != p.types {
					called[fn.Origin()] = true
				}
			}
		}
	}
	ifaces := m.interfaces()
	report := func(fn *types.Func, format string, args ...any) {
		pos := m.fset.Position(fn.Pos())
		file, _ := filepath.Rel(root, pos.Filename)
		out = append(out, fmt.Sprintf("%s:%d: ", file, pos.Line)+fmt.Sprintf(format, args...))
	}
	for _, rel := range slices.Sorted(maps.Keys(m.pkgs)) {
		p := m.pkgs[rel]
		if p == nil {
			continue
		}
		internal := strings.HasPrefix(rel, "internal/")
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if fn, ok := scope.Lookup(name).(*types.Func); ok {
				if !fn.Exported() && !used[fn] && !(name == "main" && p.types.Name() == "main") {
					report(fn, "%s.%s is unexported and no non-test file uses it", p.types.Name(), name)
				}
				continue
			}
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := range named.NumMethods() {
				fn := named.Method(i)
				switch {
				case fn.Exported() && (!internal || called[fn]), !fn.Exported() && used[fn]:
				case required(named, fn.Name(), ifaces):
				case fn.Exported():
					report(fn, "%s.%s.%s is exported but no other package calls it", p.types.Name(), name, fn.Name())
				default:
					report(fn, "%s.%s.%s is unexported and no non-test file uses it", p.types.Name(), name, fn.Name())
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// modulePath reads the module path off root's go.mod.
func modulePath(root string) (string, error) {
	modfile, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("go.mod: %v", err)
	}
	module, _, _ := strings.Cut(strings.TrimPrefix(string(modfile), "module "), "\n")
	return strings.TrimSpace(module), nil
}

// checkedPkg is one type-checked package and the object each of its
// identifiers uses.
type checkedPkg struct {
	types *types.Package
	uses  map[*ast.Ident]types.Object
}

// moduleChecker type-checks the non-test files of the module's
// packages from source, by directory relative to root, importing the
// standard library from export data.
type moduleChecker struct {
	fset         *token.FileSet
	root, module string
	std          types.Importer
	pkgs         map[string]*checkedPkg // nil: no Go files, or in progress
}

// Import implements types.Importer.
func (m *moduleChecker) Import(importPath string) (*types.Package, error) {
	if importPath != m.module && !strings.HasPrefix(importPath, m.module+"/") {
		return m.std.Import(importPath)
	}
	p, err := m.check(strings.TrimPrefix(strings.TrimPrefix(importPath, m.module), "/"))
	if err == nil && p == nil {
		err = fmt.Errorf("no Go files for %s", importPath)
	}
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// check type-checks the package in directory rel ("" or "." for the
// root), once; a directory without non-test Go files checks to nil.
func (m *moduleChecker) check(rel string) (*checkedPkg, error) {
	if rel == "" {
		rel = "."
	}
	if p, ok := m.pkgs[rel]; ok {
		return p, nil
	}
	m.pkgs[rel] = nil
	parsed, err := parser.ParseDir(m.fset, filepath.Join(m.root, rel), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil || len(parsed) == 0 {
		return nil, err
	}
	var files []*ast.File
	for _, pkg := range parsed {
		for _, name := range slices.Sorted(maps.Keys(pkg.Files)) {
			files = append(files, pkg.Files[name])
		}
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: m}
	tp, err := conf.Check(path.Join(m.module, rel), m.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &checkedPkg{types: tp, uses: info.Uses}
	m.pkgs[rel] = p
	return p, nil
}

// interfaces collects every non-empty package-scope interface of the
// module's packages and of the standard library packages they import,
// plus error and errors' Unwrap protocol.
func (m *moduleChecker) interfaces() []*types.Interface {
	unwrap := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil,
			types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Universe.Lookup("error").Type())), false))}, nil)
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface), unwrap.Complete()}
	seen := map[*types.Package]bool{}
	var add func(pkg *types.Package)
	add = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			add(imp)
		}
	}
	for _, rel := range slices.Sorted(maps.Keys(m.pkgs)) {
		if p := m.pkgs[rel]; p != nil {
			add(p.types)
		}
	}
	return out
}

// required reports whether one of ifaces has a method called name and
// is implemented by t or *t.
func required(t *types.Named, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := range it.NumMethods() {
			if it.Method(i).Name() == name &&
				(types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}
