// Command docslint enforces the repository's documentation contract in
// CI. It reads the documents as text and the module's Go packages
// through one type-checked load, and fails when
//
//   - an exported top-level identifier (function, method on an exported
//     type, type, var or const) of a package in docPackages lacks a doc
//     comment, or such a package lacks a package comment;
//   - a relative link in README.md, ARCHITECTURE.md or ROADMAP.md points
//     at a file that does not exist (http, mailto and in-page links are
//     skipped, fragments stripped);
//   - one of those documents cites `path:line` (a bare `:N` after it
//     cites the same file) where the file or the line does not exist, or
//     the line holds none of the identifiers backticked in the sentence;
//   - one of those documents quotes a baseline metric count ("530-metric",
//     "530 gated simulated metrics") other than bench/baseline.json's;
//   - a `go run ./cmd/<x>` or `go build ./cmd/<x>` line in README.md,
//     ARCHITECTURE.md or the verify skill notes names a missing command
//     directory, a flag cmd/<x> does not define, or a -fig/-scenario
//     value that is not a registered harness scenario ID (or "all");
//   - README.md or ARCHITECTURE.md cites nicbarrier.X or <pkg>.X, for a
//     package under internal/, where X is neither declared at package
//     level nor one of the package's files ("comm.go"); cites
//     <pkg>.T.M where type T has no field or method M; or has a ```go
//     block that sets a field <pkg>.T{…} does not have, or calls x.M(…),
//     x not a package name, where no type of the module declares M;
//   - a non-test Go file cites a *.md file that exists neither from the
//     repository root nor from the file's own directory;
//   - a package under internal/ exports a name that no non-test file of
//     another package uses (the root package, cmd/ and perfbench/
//     count), unless the exported surface of a used name reaches it, it
//     is a constant of such a type, or it is an Err* variable;
//   - a concrete type under internal/ has an exported method that no
//     other package calls or takes as a value, or a package of the
//     module has an unexported function or method that no non-test file
//     uses, unless an interface (the module's, an imported standard
//     package's, error, or errors' Unwrap) requires it.
//
// Usage:
//
//	go run ./cmd/docslint [-root dir]
//
// It prints one line per violation and exits non-zero if any were
// found.
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
	for _, f := range linkFiles {
		violations = append(violations, lintLinks(*root, f)...)
		violations = append(violations, lintLineCites(*root, f)...)
	}
	violations = append(violations, lintMetricCounts(*root)...)
	violations = append(violations, lintCommands(*root, harness.Experiments())...)
	violations = append(violations, lintDocRefs(*root)...)
	m, failed := loadModule(*root)
	violations = append(violations, failed...)
	if len(failed) == 0 {
		for _, pkg := range docPackages {
			violations = append(violations, lintPackage(m, pkg)...)
		}
		violations = append(violations, lintCitations(m)...)
		violations = append(violations, lintExports(m)...)
		violations = append(violations, lintMethods(m)...)
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, v)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "docslint: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
	fmt.Println("docslint: ok")
}

// lintPackage reports the exported top-level identifiers of the loaded
// package in directory rel that lack doc comments, plus a missing
// package comment. A spec inside a grouped var/const/type block is
// covered by either its own doc comment or the block's; a method counts
// when its receiver's base type is exported.
func lintPackage(m *moduleChecker, rel string) []string {
	dir := filepath.Join(m.root, rel)
	p := m.pkgs[rel]
	if p == nil {
		return []string{dir + ": no Go package"}
	}
	var out []string
	report := func(id *ast.Ident, what string) {
		if id.IsExported() {
			pos := m.fset.Position(id.Pos())
			out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", pos.Filename, pos.Line, what, id.Name))
		}
	}
	hasPkgDoc := false
	for _, f := range p.files {
		hasPkgDoc = hasPkgDoc || f.Doc != nil
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Doc == nil && d.Recv == nil {
					report(d.Name, "function")
				} else if d.Doc == nil {
					recv, _, _ := strings.Cut(strings.TrimLeft(types.ExprString(d.Recv.List[0].Type), "*"), "[")
					if ast.IsExported(recv) {
						report(d.Name, "method")
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if d.Doc == nil && s.Doc == nil {
							report(s.Name, "type")
						}
					case *ast.ValueSpec:
						if d.Doc == nil && s.Doc == nil {
							for _, n := range s.Names {
								report(n, d.Tok.String()) // "var" or "const"
							}
						}
					}
				}
			}
		}
	}
	if !hasPkgDoc {
		out = append(out, fmt.Sprintf("%s: package %s has no package comment", dir, p.types.Name()))
	}
	return out
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
			target, _, _ := strings.Cut(m[1], "#")
			if target == "" || strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			if !exists(filepath.Join(filepath.Dir(path), target)) {
				out = append(out, fmt.Sprintf("%s:%d: broken link %q", name, i+1, m[1]))
			}
		}
	}
	return out
}

// lineCite matches a backticked path:line citation of a file with an
// extension ("internal/sim/queue.go:164", not "localhost:8080"); a bare
// `:N` (group 1 empty) cites the previous citation's file again.
var lineCite = regexp.MustCompile("`((?:[\\w./-]+\\.[A-Za-z]+)?):(\\d+)`")

// codeSpan matches an inline code span, sentenceEnd the end of a
// sentence, a paragraph or a list item, and identifier a Go identifier.
var (
	codeSpan    = regexp.MustCompile("`[^`\\n]+`")
	sentenceEnd = regexp.MustCompile(`[.!?]\s|\n\s*(\n|[-*] )`)
	identifier  = regexp.MustCompile(`[A-Za-z_]\w*`)
)

// lintLineCites reports each path:line citation in root/name whose file
// (relative to root) or line does not exist, or whose line holds none of
// the identifiers in the other code spans of the citation's sentence.
func lintLineCites(root, name string) []string {
	data, err := os.ReadFile(filepath.Join(root, name))
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", name, err)}
	}
	text := string(data)
	var out []string
	file := ""
	for _, c := range lineCite.FindAllStringSubmatchIndex(text, -1) {
		if c[3] > c[2] {
			file = text[c[2]:c[3]]
		}
		n, _ := strconv.Atoi(text[c[4]:c[5]])
		where := fmt.Sprintf("%s:%d: %s:%d", name, 1+strings.Count(text[:c[0]], "\n"), file, n)
		src, err := os.ReadFile(filepath.Join(root, file))
		if err != nil || file == "" {
			out = append(out, where+": no such file")
			continue
		}
		lines := strings.Split(strings.TrimSuffix(string(src), "\n"), "\n")
		if n < 1 || n > len(lines) {
			out = append(out, fmt.Sprintf("%s: %s has %d lines", where, file, len(lines)))
			continue
		}
		start, end := 0, len(text)
		for _, e := range sentenceEnd.FindAllStringIndex(text[:c[0]], -1) {
			start = e[1]
		}
		if e := sentenceEnd.FindStringIndex(text[c[1]:]); e != nil {
			end = c[1] + e[0]
		}
		var names []string
		for _, span := range codeSpan.FindAllString(text[start:end], -1) {
			if !lineCite.MatchString(span) {
				names = append(names, identifier.FindAllString(span, -1)...)
			}
		}
		have := identifier.FindAllString(lines[n-1], -1)
		if !slices.ContainsFunc(names, func(id string) bool { return slices.Contains(have, id) }) {
			out = append(out, fmt.Sprintf("%s holds none of the names cited beside it: %s", where, strings.Join(names, " ")))
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
// package name, group 2 the identifier and group 3, if present, a
// member of it.
var citation = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)

// lintCitations reports citations in the cite documents of m's module
// of <pkg>.X, for the root package ("nicbarrier.X") or a package
// internal/<pkg>, where X is neither declared at package level in that
// package nor the name of one of its files. A citation preceded by a
// path or identifier character ("internal/comm.X", "x.comm.Y") is not
// one. A cited <pkg>.T.M must name a field or method M of type T.
// Fields set in composite literals of the package's struct types and
// method calls inside ```go blocks are checked too.
func lintCitations(m *moduleChecker) []string {
	lookup := func(name string) *checkedPkg {
		if p := m.pkgs["."]; p != nil && p.types.Name() == name {
			return p
		}
		return m.pkgs["internal/"+name]
	}
	methods := map[string]bool{} // every method a type of the module has
	for _, p := range m.pkgs {
		for _, name := range p.types.Scope().Names() {
			t := p.types.Scope().Lookup(name).Type()
			for _, ms := range []*types.MethodSet{types.NewMethodSet(t), types.NewMethodSet(types.NewPointer(t))} {
				for i := range ms.Len() {
					methods[ms.At(i).Obj().Name()] = true
				}
			}
		}
	}
	var out []string
	for _, name := range citeFiles {
		data, err := os.ReadFile(filepath.Join(m.root, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		lines := strings.Split(string(data), "\n")
		for i, line := range lines {
			for _, c := range citation.FindAllStringSubmatchIndex(line, -1) {
				if c[0] > 0 && strings.ContainsRune("/._-", rune(line[c[0]-1])) {
					continue
				}
				pkg, id := line[c[2]:c[3]], line[c[4]:c[5]]
				p := lookup(pkg)
				if p == nil {
					continue
				}
				obj := p.types.Scope().Lookup(id)
				if obj == nil && !exists(filepath.Join(p.dir, pkg+"."+id)) {
					out = append(out, fmt.Sprintf("%s:%d: %s.%s is not declared in package %s", name, i+1, pkg, id, pkg))
				}
				if tn, ok := obj.(*types.TypeName); ok && c[6] >= 0 {
					member := line[c[6]:c[7]]
					if obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, p.types, member); obj == nil {
						out = append(out, fmt.Sprintf("%s:%d: %s.%s has no field or method %s", name, i+1, pkg, id, member))
					}
				}
			}
		}
		out = append(out, lintGoBlocks(name, lines, lookup, methods)...)
	}
	return out
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

// lintGoBlocks parses each ```go block of a document as a function body
// and reports keys of pkg.T{…} literals that are not fields of struct
// type T, and calls x.M(…) whose x is not a package name (of the module
// or the standard library) and whose M is not in methods. A block that
// does not parse is skipped.
func lintGoBlocks(name string, lines []string, lookup func(string) *checkedPkg, methods map[string]bool) []string {
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
			if !ok || lit.Type == nil {
				return true
			}
			pkg, typ, _ := strings.Cut(types.ExprString(lit.Type), ".")
			if lookup(pkg) == nil {
				return true
			}
			tn, ok := lookup(pkg).types.Scope().Lookup(typ).(*types.TypeName)
			if !ok {
				return true
			}
			if _, ok := tn.Type().Underlying().(*types.Struct); !ok {
				return true
			}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok {
					obj, index, _ := types.LookupFieldOrMethod(tn.Type(), false, tn.Pkg(), key.Name)
					if _, field := obj.(*types.Var); !field || len(index) > 1 {
						line := start + fset.Position(key.Pos()).Line - 2
						out = append(out, fmt.Sprintf("%s:%d: %s.%s has no field %s", name, line, pkg, typ, key.Name))
					}
				}
			}
			return true
		})
	}
	return out
}
