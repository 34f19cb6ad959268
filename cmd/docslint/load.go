package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// checkedPkg is one package of the module: its non-test files, parsed
// with comments, its type-checked package and the object each of its
// identifiers uses.
type checkedPkg struct {
	dir   string
	files []*ast.File
	types *types.Package
	uses  map[*ast.Ident]types.Object
}

// moduleChecker is the module's one load: every package of the module,
// by directory relative to root, type-checked from source, with the
// standard library imported from export data.
type moduleChecker struct {
	fset         *token.FileSet
	root, module string
	std          types.Importer
	pkgs         map[string]*checkedPkg
}

// loadModule parses and type-checks the non-test files of every package
// under root, nested modules such as perfbench/ included; testdata and
// dot-directories are skipped. It returns one line per package that
// does not parse or type-check.
func loadModule(root string) (*moduleChecker, []string) {
	module, err := modulePath(root)
	if err != nil {
		return nil, []string{err.Error()}
	}
	m := &moduleChecker{fset: token.NewFileSet(), root: root, module: module, pkgs: map[string]*checkedPkg{}}
	var out []string
	std := map[string]bool{}
	filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return nil
		}
		if dir != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, dir)
		parsed, err := parser.ParseDir(m.fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", rel, err))
		}
		if err != nil || len(parsed) == 0 {
			return nil
		}
		p := &checkedPkg{dir: dir}
		for _, pkg := range parsed {
			for _, name := range slices.Sorted(maps.Keys(pkg.Files)) {
				p.files = append(p.files, pkg.Files[name])
				for _, imp := range pkg.Files[name].Imports {
					if path, _ := strconv.Unquote(imp.Path.Value); !m.inModule(path) {
						std[path] = true
					}
				}
			}
		}
		m.pkgs[filepath.ToSlash(rel)] = p
		return nil
	})
	exports, err := exportData(root, slices.Sorted(maps.Keys(std)))
	if err != nil {
		return nil, append(out, err.Error())
	}
	m.std = importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	for _, rel := range slices.Sorted(maps.Keys(m.pkgs)) {
		if err := m.check(rel); err != nil {
			out = append(out, fmt.Sprintf("%s: type check: %v", rel, err))
		}
	}
	return m, out
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

// exportData asks one go list run for the export data files of the
// standard library packages paths; importing each through the go
// command costs a run per package.
func exportData(root string, paths []string) (map[string]string, error) {
	files := map[string]string{}
	if len(paths) == 0 {
		return files, nil
	}
	cmd := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, paths...)...)
	cmd.Dir, cmd.Stderr = root, os.Stderr
	listed, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(listed)), "\n") {
		path, file, _ := strings.Cut(line, " ")
		files[path] = file
	}
	return files, nil
}

// pos prints obj's position as "file:line: ", the file relative to
// root.
func (m *moduleChecker) pos(obj types.Object) string {
	p := m.fset.Position(obj.Pos())
	file, _ := filepath.Rel(m.root, p.Filename)
	return fmt.Sprintf("%s:%d: ", file, p.Line)
}

// inModule reports whether importPath names a package of the module.
func (m *moduleChecker) inModule(importPath string) bool {
	return importPath == m.module || strings.HasPrefix(importPath, m.module+"/")
}

// Import implements types.Importer.
func (m *moduleChecker) Import(importPath string) (*types.Package, error) {
	if !m.inModule(importPath) {
		return m.std.Import(importPath)
	}
	rel := path.Join(".", strings.TrimPrefix(importPath, m.module))
	if err := m.check(rel); err != nil {
		return nil, err
	}
	return m.pkgs[rel].types, nil
}

// check type-checks the package in directory rel, once. A package
// that fails to check keeps the partial result, so its importers
// report only their own errors.
func (m *moduleChecker) check(rel string) error {
	p := m.pkgs[rel]
	switch {
	case p == nil:
		return fmt.Errorf("no Go files in %s", rel)
	case p.types != nil:
		return nil
	case p.uses != nil:
		return fmt.Errorf("import cycle through %s", rel)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	p.uses = info.Uses
	conf := types.Config{Importer: m}
	var err error
	p.types, err = conf.Check(path.Join(m.module, rel), m.fset, p.files, info)
	return err
}
