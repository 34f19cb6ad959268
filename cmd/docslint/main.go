// Command docslint enforces the repository's documentation contract in
// CI. It fails when
//
//   - any exported top-level identifier (function, method on an exported
//     type, type, var or const) in the root nicbarrier package or in
//     internal/{sim,netsim,comm,obs} lacks a doc comment, or
//   - any of those packages lacks a package comment, or
//   - a relative link in README.md, ARCHITECTURE.md or ROADMAP.md points
//     at a file that does not exist, or
//   - one of those documents quotes a baseline metric count ("530-metric",
//     "530 metrics", "530 gated simulated metrics") other than the number
//     of metrics in bench/baseline.json, or
//   - a `go run ./cmd/<x>` or `go build ./cmd/<x>` line in README.md,
//     ARCHITECTURE.md or the verify skill notes names a command directory
//     that does not exist, passes cmd/<x> a flag it does not define, or
//     gives barrier-bench, simserve or benchgate a -fig/-scenario value
//     that is not a registered harness scenario ID (or "all"), or
//   - README.md or ARCHITECTURE.md cites nicbarrier.X or <pkg>.X for a
//     package under internal/ where X is neither a top-level identifier
//     declared in that package nor one of its files ("comm.go"), or a
//     ```go block sets a field that nicbarrier.T{…} or <pkg>.T{…} does
//     not have, or calls x.M(…), x not a package of the module or of
//     the standard library, where no non-test type in the module
//     declares a method M, or
//   - a non-test Go source file cites a *.md file that exists neither
//     at that path from the repository root nor from the file's own
//     directory, or
//   - a package under internal/ exports a top-level name that no
//     non-test Go file of another package names (the root package,
//     cmd/, the other internal packages and perfbench/ all count),
//     unless an exported signature, field or method of a used name
//     reaches it, it is a constant of such a type, or it is an Err*
//     sentinel variable, or
//   - a concrete type of a package under internal/ has an exported
//     method that no non-test Go file of another package calls or takes
//     as a value (type-checked with go/types), unless an interface of
//     the module or of an imported standard package, error, or errors'
//     Unwrap requires it, or
//   - an unexported top-level function, or an unexported method of a
//     package-scope type, in any package of the module is used by no
//     non-test Go file (its own package's count), unless such an
//     interface requires it.
//
// Usage:
//
//	go run ./cmd/docslint [-root dir]
//
// External links (http/https/mailto) and pure in-page anchors are not
// checked; fragments on relative links are stripped before the file
// check. The tool prints one line per violation and exits non-zero if
// any were found.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"

	"nicbarrier/internal/harness"
)

// docPackages are the packages whose exported surface must be fully
// documented: the public facade and the layers ARCHITECTURE.md leans on.
var docPackages = []string{".", "internal/sim", "internal/netsim", "internal/core", "internal/comm", "internal/chaos", "internal/obs",
	"internal/harness", "internal/shard", "internal/myrinet", "internal/elan", "internal/barrier", "internal/fault"}

// linkFiles are the markdown documents whose relative links must resolve.
var linkFiles = []string{"README.md", "ARCHITECTURE.md", "ROADMAP.md"}

func main() {
	root := flag.String("root", ".", "repository root to lint")
	flag.Parse()

	var violations []string
	for _, pkg := range docPackages {
		violations = append(violations, lintPackage(filepath.Join(*root, pkg))...)
	}
	for _, f := range linkFiles {
		violations = append(violations, lintLinks(*root, f)...)
	}
	violations = append(violations, lintMetricCounts(*root)...)
	violations = append(violations, lintCommands(*root, harness.Experiments())...)
	violations = append(violations, lintCitations(*root)...)
	violations = append(violations, lintDocRefs(*root)...)
	violations = append(violations, lintExports(*root)...)
	violations = append(violations, lintMethods(*root)...)
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, v)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "docslint: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
	fmt.Println("docslint: ok")
}

// lintPackage parses every non-test Go file in dir and reports exported
// top-level identifiers without doc comments, plus a missing package
// comment.
func lintPackage(dir string) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", dir, err)}
	}
	var out []string
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
			out = append(out, lintFile(fset, f)...)
		}
		if !hasPkgDoc {
			out = append(out, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
		}
	}
	return out
}

// lintFile reports undocumented exported declarations in one file. A
// spec inside a grouped var/const/type block is covered by either its
// own doc comment or the block's.
func lintFile(fset *token.FileSet, f *ast.File) []string {
	var out []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, what, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !exportedReceiver(d) {
				continue
			}
			if d.Doc == nil {
				what := "function"
				if d.Recv != nil {
					what = "method"
				}
				report(d.Pos(), what, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					if d.Doc != nil || s.Doc != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							report(n.Pos(), declWhat(d.Tok), n.Name)
						}
					}
				}
			}
		}
	}
	return out
}

func declWhat(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}

// exportedReceiver reports whether a declaration is part of the
// exported surface: free functions always are; methods only when their
// receiver's base type is exported.
func exportedReceiver(d *ast.FuncDecl) bool {
	name := receiverType(d)
	return name == "" || ast.IsExported(name)
}

// mdLink matches inline markdown links; the first group is the target.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// lintLinks reports relative links in root/name that do not resolve to
// an existing file or directory. Targets are resolved relative to the
// markdown file's own directory, as renderers do.
func lintLinks(root, name string) []string {
	path := filepath.Join(root, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", name, err)}
	}
	var out []string
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				out = append(out, fmt.Sprintf("%s:%d: broken link %q", name, i+1, m[1]))
			}
		}
	}
	return out
}

// mdName matches a markdown file name cited in Go source.
var mdName = regexp.MustCompile(`[\w./-]+\.md\b`)

// lintDocRefs reports every *.md file cited in a non-test Go source file
// under root that resolves neither from root nor from the citing file's
// directory. Hidden directories and testdata are not scanned.
func lintDocRefs(root string) []string {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for i, line := range strings.Split(string(data), "\n") {
			for _, ref := range mdName.FindAllString(line, -1) {
				if exists(filepath.Join(root, ref)) || exists(filepath.Join(filepath.Dir(path), ref)) {
					continue
				}
				out = append(out, fmt.Sprintf("%s:%d: cites %s, which does not exist", rel, i+1, ref))
			}
		}
		return nil
	})
	if err != nil {
		out = append(out, fmt.Sprintf("%s: %v", root, err))
	}
	return out
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// metricCount matches a quoted metric count: "530-metric", or "530
// metrics" with any of the baseline's qualifiers in between, across line
// breaks. The first group is the number.
var metricCount = regexp.MustCompile(`\b(\d[\d,]*)(?:-metric\b|\s+(?:(?:baseline|gated|simulated|existing)\s+)*metrics\b)`)

// lintMetricCounts reports every metric count quoted in the linked
// documents that differs from the number of metrics in
// root/bench/baseline.json.
func lintMetricCounts(root string) []string {
	data, err := os.ReadFile(filepath.Join(root, "bench", "baseline.json"))
	if err != nil {
		return []string{fmt.Sprintf("bench/baseline.json: %v", err)}
	}
	var baseline struct {
		Metrics []json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(data, &baseline); err != nil {
		return []string{fmt.Sprintf("bench/baseline.json: %v", err)}
	}
	want := fmt.Sprint(len(baseline.Metrics))
	var out []string
	for _, name := range linkFiles {
		text, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			return append(out, fmt.Sprintf("%s: %v", name, err))
		}
		for _, m := range metricCount.FindAllSubmatchIndex(text, -1) {
			if got := strings.ReplaceAll(string(text[m[2]:m[3]]), ",", ""); got != want {
				line := 1 + strings.Count(string(text[:m[0]]), "\n")
				out = append(out, fmt.Sprintf("%s:%d: quotes %s baseline metrics, bench/baseline.json has %s", name, line, got, want))
			}
		}
	}
	return out
}

// commandFiles are the documents whose go run/go build lines must name
// real commands, flags and scenario IDs. A missing file is skipped.
var commandFiles = []string{"README.md", "ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"}

// goCommand matches a go run/go build invocation of a repository
// command; group 1 is the verb, group 2 the command directory name.
var goCommand = regexp.MustCompile("go (run|build)\\b[^`\\n]*?\\s\\./cmd/([\\w-]+)")

// scenarioFlags are the flags whose value names harness scenarios, per
// command that takes them.
var scenarioFlags = map[string]map[string]bool{
	"barrier-bench": {"fig": true},
	"simserve":      {"scenario": true},
	"benchgate":     {"scenario": true},
}

// lintCommands reports go run/go build lines in the command documents
// under root that name a missing cmd/<x> directory, a flag cmd/<x> does
// not define, or a scenario value outside ids. Only the arguments of go
// run are checked for flags; a go build line only needs its directory.
// A shell operator ends the arguments unless a flag follows it (the
// docs write alternatives as "-list | -fig <id>"); <placeholders> and
// "all" pass the scenario check.
func lintCommands(root string, ids []string) []string {
	var out []string
	defined := map[string]map[string]bool{}
	for _, name := range commandFiles {
		data, err := os.ReadFile(filepath.Join(root, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range goCommand.FindAllStringSubmatchIndex(line, -1) {
				verb, cmd := line[m[2]:m[3]], line[m[4]:m[5]]
				where := fmt.Sprintf("%s:%d: go %s ./cmd/%s", name, i+1, verb, cmd)
				flags, ok := defined[cmd]
				if !ok {
					flags = definedFlags(filepath.Join(root, "cmd", cmd))
					defined[cmd] = flags
				}
				if flags == nil {
					out = append(out, where+": no such command directory")
					continue
				}
				if verb != "run" {
					continue
				}
				args := commandArgs(line[m[1]:])
				for j, arg := range args {
					flag, value, hasValue := strings.Cut(strings.TrimLeft(arg, "-"), "=")
					if !strings.HasPrefix(arg, "-") || flag == "" || (flag[0] >= '0' && flag[0] <= '9') {
						continue
					}
					if !flags[flag] {
						out = append(out, fmt.Sprintf("%s: flag -%s is not defined by cmd/%s", where, flag, cmd))
						continue
					}
					if !scenarioFlags[cmd][flag] {
						continue
					}
					if !hasValue && j+1 < len(args) {
						value = args[j+1]
					}
					for _, id := range strings.Split(value, ",") {
						if id != "all" && !strings.HasPrefix(id, "<") && !slices.Contains(ids, id) {
							out = append(out, fmt.Sprintf("%s: -%s %s is not a registered scenario", where, flag, id))
						}
					}
				}
			}
		}
	}
	return out
}

// commandArgs splits the text after a command path into its arguments:
// up to a comment, the end of an inline code span, or a shell operator
// that no flag follows. Brackets marking optional arguments are
// stripped.
func commandArgs(rest string) []string {
	rest, _, _ = strings.Cut(rest, "`")
	rest, _, _ = strings.Cut(rest, " #")
	fields := strings.Fields(rest)
	var args []string
	for i, f := range fields {
		switch f {
		case "|", "||", "&&", ";", "&", ">", ">>", "<", "2>&1":
			if i+1 < len(fields) && strings.HasPrefix(fields[i+1], "-") {
				continue
			}
			return args
		}
		args = append(args, strings.Trim(f, "[]()"))
	}
	return args
}

// definedFlags collects the flag names the non-test Go files in dir
// define through flag-set calls — String/Bool/Int/Uint64/Float64 and
// friends take the name first, their Var forms second — plus the -h
// and -help every flag set accepts. It returns nil when dir holds no
// Go package.
func definedFlags(dir string) map[string]bool {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil || len(pkgs) == 0 {
		return nil
	}
	flags := map[string]bool{"h": true, "help": true}
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			arg := -1
			switch sel.Sel.Name {
			case "String", "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "Duration":
				arg = 0
			case "StringVar", "BoolVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "Float64Var", "DurationVar", "Var":
				arg = 1
			}
			if arg < 0 || len(call.Args) <= arg {
				return true
			}
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					flags[name] = true
				}
			}
			return true
		})
	}
	return flags
}

// citeFiles are the documents whose package-qualified citations must
// resolve.
var citeFiles = []string{"README.md", "ARCHITECTURE.md"}

// citation matches a package-qualified identifier; group 1 is the
// package name, group 2 the identifier.
var citation = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Za-z_]\w*)`)

// pkgDecls is what a package declares at top level: every identifier
// (functions, types, vars and each member of a const block) and the
// field names of its struct types.
type pkgDecls struct {
	dir    string
	idents map[string]bool
	fields map[string]map[string]bool
}

// lintCitations reports citations in the cite documents under root of
// nicbarrier.X, or of <pkg>.X for a directory internal/<pkg>, where X
// is neither declared at top level in that package's non-test files
// nor the name of one of its files. A citation preceded by a path or
// identifier character ("internal/comm.X", "x.comm.Y") is not one.
// Fields set in composite literals of the package's struct types and
// method calls inside ```go blocks are checked too.
func lintCitations(root string) []string {
	pkgs := map[string]*pkgDecls{"nicbarrier": {dir: root}}
	entries, _ := os.ReadDir(filepath.Join(root, "internal"))
	for _, e := range entries {
		if e.IsDir() {
			pkgs[e.Name()] = &pkgDecls{dir: filepath.Join(root, "internal", e.Name())}
		}
	}
	lookup := func(name string) *pkgDecls {
		p := pkgs[name]
		if p != nil && p.idents == nil {
			p.scan()
		}
		return p
	}
	var out []string
	methods := moduleMethods(root)
	for _, name := range citeFiles {
		data, err := os.ReadFile(filepath.Join(root, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		lines := strings.Split(string(data), "\n")
		for i, line := range lines {
			for _, m := range citation.FindAllStringSubmatchIndex(line, -1) {
				if m[0] > 0 && strings.ContainsRune("/._-", rune(line[m[0]-1])) {
					continue
				}
				pkg, id := line[m[2]:m[3]], line[m[4]:m[5]]
				p := lookup(pkg)
				if p == nil || p.idents[id] {
					continue
				}
				if _, err := os.Stat(filepath.Join(p.dir, pkg+"."+id)); err == nil {
					continue
				}
				out = append(out, fmt.Sprintf("%s:%d: %s.%s is not declared in package %s", name, i+1, pkg, id, pkg))
			}
		}
		out = append(out, lintGoBlocks(name, lines, lookup, methods)...)
	}
	return out
}

// moduleMethods lists the method names non-test types declare anywhere
// in the module rooted at root, interface methods included. Directories
// holding a module of their own, testdata and dot-directories are
// skipped.
func moduleMethods(root string) map[string]bool {
	methods := map[string]bool{}
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return nil
		}
		if path != root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
		}
		parsed, _ := parser.ParseDir(token.NewFileSet(), path, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		for _, pkg := range parsed {
			ast.Inspect(pkg, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.FuncDecl:
					if v.Recv != nil {
						methods[v.Name.Name] = true
					}
				case *ast.InterfaceType:
					for _, f := range v.Methods.List {
						for _, name := range f.Names {
							methods[name.Name] = true
						}
					}
				}
				return true
			})
		}
		return nil
	})
	return methods
}

// stdlibNames holds the name of every standard library package: the
// base name of each directory under GOROOT/src, so nested packages
// ("rand", "filepath") count. Built on first use.
var stdlibNames = sync.OnceValue(func() map[string]bool {
	names := map[string]bool{}
	src := filepath.Join(build.Default.GOROOT, "src")
	filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != src {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			names[d.Name()] = true
		}
		return nil
	})
	return names
})

// scan parses the package's non-test files and records its top-level
// declarations.
func (p *pkgDecls) scan() {
	p.idents, p.fields = map[string]bool{}, map[string]map[string]bool{}
	fset := token.NewFileSet()
	parsed, _ := parser.ParseDir(fset, p.dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	for _, pkg := range parsed {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						p.idents[d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							p.idents[s.Name.Name] = true
							if st, ok := s.Type.(*ast.StructType); ok {
								p.fields[s.Name.Name] = structFields(st)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								p.idents[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
}

// structFields lists a struct's field names, embedded ones by their
// type name.
func structFields(st *ast.StructType) map[string]bool {
	fields := map[string]bool{}
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			fields[n.Name] = true
		}
		if len(f.Names) == 0 {
			t := f.Type
			if star, ok := t.(*ast.StarExpr); ok {
				t = star.X
			}
			switch e := t.(type) {
			case *ast.Ident:
				fields[e.Name] = true
			case *ast.SelectorExpr:
				fields[e.Sel.Name] = true
			}
		}
	}
	return fields
}

// lintGoBlocks parses each ```go block of a document as a function body
// and reports keys of pkg.T{…} literals that are not fields of struct
// type T, and calls x.M(…) whose x is not a package name (of the module
// or the standard library) and whose M no type of the module declares
// as a method. A block that does not parse is skipped.
func lintGoBlocks(name string, lines []string, lookup func(string) *pkgDecls, methods map[string]bool) []string {
	var out []string
	for i := 0; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != "```go" {
			continue
		}
		start := i + 1
		for i++; i < len(lines) && strings.TrimSpace(lines[i]) != "```"; i++ {
		}
		src := "package p\nfunc _() {\n" + strings.Join(lines[start:min(i, len(lines))], "\n") + "\n}\n"
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "", src, 0)
		if err != nil {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && (lookup(x.Name) != nil || stdlibNames()[x.Name]) {
					return true
				}
				if !methods[sel.Sel.Name] {
					line := start + fset.Position(sel.Sel.Pos()).Line - 2
					out = append(out, fmt.Sprintf("%s:%d: %s.%s: no type in the module declares method %s",
						name, line, types.ExprString(sel.X), sel.Sel.Name, sel.Sel.Name))
				}
				return true
			}
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			sel, ok := lit.Type.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			p := lookup(pkg.Name)
			if p == nil || p.fields[sel.Sel.Name] == nil {
				return true
			}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok && !p.fields[sel.Sel.Name][key.Name] {
					line := start + fset.Position(key.Pos()).Line - 2
					out = append(out, fmt.Sprintf("%s:%d: %s.%s has no field %s", name, line, pkg.Name, sel.Sel.Name, key.Name))
				}
			}
			return true
		})
	}
	return out
}

// lintExports reports each exported top-level name declared in a
// non-test file of a package under root/internal that no non-test Go
// file of another package names. The root package, cmd/, the other
// internal packages and nested modules such as perfbench/ all count. A
// name stays exempt when an exported signature, field or method of a
// used name reaches it (followed transitively), when it is a constant
// of such a type, or when it is an Err* sentinel variable.
func lintExports(root string) []string {
	module, err := modulePath(root)
	if err != nil {
		return []string{err.Error()}
	}
	prefix := module + "/internal/"
	fset := token.NewFileSet()
	pkgs := map[string]*ast.Package{} // by directory under internal/
	used := map[string]bool{}         // "<dir>.<Name>" selectors
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return nil
		}
		if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		parsed, _ := parser.ParseDir(fset, path, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		rel, _ := filepath.Rel(root, path)
		for _, pkg := range parsed {
			if dir, ok := strings.CutPrefix(filepath.ToSlash(rel), "internal/"); ok {
				pkgs[dir] = pkg
			}
			for _, f := range pkg.Files {
				imported := map[string]string{}
				for _, imp := range f.Imports {
					p, _ := strconv.Unquote(imp.Path.Value)
					if dir, ok := strings.CutPrefix(p, prefix); ok {
						name := filepath.Base(dir)
						if imp.Name != nil {
							name = imp.Name.Name
						}
						imported[name] = dir
					}
				}
				ast.Inspect(f, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && imported[x.Name] != "" {
							used[imported[x.Name]+"."+sel.Sel.Name] = true
						}
					}
					return true
				})
			}
		}
		return nil
	})
	var out []string
	for _, dir := range slices.Sorted(maps.Keys(pkgs)) {
		out = append(out, unusedExports(fset, root, dir, pkgs[dir], used)...)
	}
	return out
}

// unusedExports applies lintExports' rule to the package in
// root/internal/dir; used holds the "<dir>.<Name>" selectors other
// packages write.
func unusedExports(fset *token.FileSet, root, dir string, pkg *ast.Package, used map[string]bool) []string {
	decls := map[string]token.Pos{}    // exported top-level names
	surface := map[string][]ast.Node{} // what keeping a name keeps
	enumOf := map[string]string{}      // constant -> its type
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := receiverType(d)
				if d.Recv == nil {
					name = d.Name.Name
					decls[name] = d.Name.Pos()
				}
				if d.Name.IsExported() {
					surface[name] = append(surface[name], d.Type)
				}
			case *ast.GenDecl:
				typ := ""
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						decls[s.Name.Name] = s.Name.Pos()
						surface[s.Name.Name] = append(surface[s.Name.Name], s)
					case *ast.ValueSpec:
						// A constant's type is its own, the previous spec's
						// (implicit repetition) or that of a typed constant
						// its value names ("Second = 1000 * Millisecond").
						if id, ok := s.Type.(*ast.Ident); ok {
							typ = id.Name
						} else if s.Type != nil || len(s.Values) > 0 {
							typ = ""
							for _, v := range s.Values {
								ast.Inspect(v, func(n ast.Node) bool {
									if id, ok := n.(*ast.Ident); ok && typ == "" {
										typ = enumOf[id.Name]
									}
									return typ == ""
								})
							}
						}
						for _, n := range s.Names {
							if d.Tok == token.CONST {
								enumOf[n.Name] = typ
							} else if strings.HasPrefix(n.Name, "Err") {
								continue // an error sentinel
							}
							decls[n.Name] = n.Pos()
							if s.Type != nil {
								surface[n.Name] = append(surface[n.Name], s.Type)
							}
						}
					}
				}
			}
		}
	}
	keep := map[string]bool{}
	var visit func(name string)
	var mark func(n ast.Node)
	visit = func(name string) {
		if _, ok := decls[name]; ok && ast.IsExported(name) && !keep[name] {
			keep[name] = true
			for _, n := range surface[name] {
				mark(n)
			}
		}
	}
	// mark keeps every name of the package a type expression or
	// signature shows another package: a struct's exported and embedded
	// fields, not its unexported ones, and types, not parameter names.
	mark = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.SelectorExpr: // another package's name
				return false
			case *ast.StructType:
				for _, f := range v.Fields.List {
					if len(f.Names) == 0 || slices.ContainsFunc(f.Names, (*ast.Ident).IsExported) {
						mark(f.Type)
					}
				}
				return false
			case *ast.Field:
				mark(v.Type)
				return false
			case *ast.Ident:
				visit(v.Name)
			}
			return true
		})
	}
	for name := range decls {
		if used[dir+"."+name] {
			visit(name)
		}
	}
	var out []string
	for name, pos := range decls {
		if ast.IsExported(name) && !keep[name] && !keep[enumOf[name]] {
			p := fset.Position(pos)
			rel, _ := filepath.Rel(root, p.Filename)
			out = append(out, fmt.Sprintf("%s:%d: %s.%s is exported but no other package uses it", rel, p.Line, filepath.Base(dir), name))
		}
	}
	slices.Sort(out)
	return out
}

// receiverType names a method's receiver base type; it is empty for a
// function or a receiver of another form.
func receiverType(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = v.X
		case *ast.IndexListExpr:
			t = v.X
		case *ast.Ident:
			return v.Name
		default:
			return ""
		}
	}
}
