package main

import (
	"fmt"
	"go/token"
	"go/types"
	"maps"
	"path"
	"slices"
	"strings"
)

// lintExports reports each exported package-level name of a package
// under root/internal that no non-test Go file of another package uses.
// The root package, cmd/, the other internal packages and nested
// modules such as perfbench/ all count. A name stays exempt when the
// exported surface of a used name reaches it (followed transitively:
// exported and embedded struct fields, exported method signatures,
// function and variable types), when it is a constant whose type is
// such a name, or when it is an Err* sentinel variable.
func lintExports(m *moduleChecker) []string {
	used := map[types.Object]bool{} // objects another package uses
	for _, p := range m.pkgs {
		for _, obj := range p.uses {
			used[obj] = used[obj] || obj.Pkg() != p.types
		}
	}
	var out []string
	for _, rel := range slices.Sorted(maps.Keys(m.pkgs)) {
		p := m.pkgs[rel]
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		kept := map[types.Object]bool{}
		var keep func(obj types.Object)
		var reach func(t types.Type)
		keep = func(obj types.Object) {
			if obj.Pkg() != p.types || !obj.Exported() || kept[obj] {
				return
			}
			kept[obj] = true
			switch obj := obj.(type) {
			case *types.Const: // a constant reaches nothing
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok { // an alias
					reach(types.Unalias(obj.Type()))
					return
				}
				reach(named.Underlying())
				for i := range named.NumMethods() {
					if fn := named.Method(i); fn.Exported() {
						reach(fn.Type())
					}
				}
			default:
				reach(obj.Type())
			}
		}
		reach = func(t types.Type) {
			switch t := t.(type) {
			case *types.Named:
				keep(t.Obj())
				for i := range t.TypeArgs().Len() {
					reach(t.TypeArgs().At(i))
				}
			case *types.Alias:
				keep(t.Obj())
			case *types.Map:
				reach(t.Key())
				reach(t.Elem())
			case interface{ Elem() types.Type }: // pointer, slice, array, channel
				reach(t.Elem())
			case *types.Signature:
				for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
					for i := range tuple.Len() {
						reach(tuple.At(i).Type())
					}
				}
			case *types.Struct:
				for i := range t.NumFields() {
					if f := t.Field(i); f.Exported() || f.Embedded() {
						reach(f.Type())
					}
				}
			case *types.Interface:
				for i := range t.NumEmbeddeds() {
					reach(t.EmbeddedType(i))
				}
				for i := range t.NumExplicitMethods() {
					reach(t.ExplicitMethod(i).Type())
				}
			}
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if used[scope.Lookup(name)] {
				keep(scope.Lookup(name))
			}
		}
		var unused []string
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			_, isVar := obj.(*types.Var)
			_, isConst := obj.(*types.Const)
			named, _ := obj.Type().(*types.Named)
			if !obj.Exported() || kept[obj] || isVar && strings.HasPrefix(name, "Err") || isConst && named != nil && kept[named.Obj()] {
				continue
			}
			unused = append(unused, m.pos(obj)+fmt.Sprintf("%s.%s is exported but no other package uses it", path.Base(rel), name))
		}
		slices.Sort(unused)
		out = append(out, unused...)
	}
	return out
}

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
func lintMethods(m *moduleChecker) []string {
	// used holds every function a non-test file names; called, those
	// another package names.
	used, called := map[*types.Func]bool{}, map[*types.Func]bool{}
	for _, p := range m.pkgs {
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
	var out []string
	report := func(fn *types.Func, format string, args ...any) {
		out = append(out, m.pos(fn)+fmt.Sprintf(format, args...))
	}
	for _, rel := range slices.Sorted(maps.Keys(m.pkgs)) {
		p := m.pkgs[rel]
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
		add(m.pkgs[rel].types)
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
