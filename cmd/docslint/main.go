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
//     that is not a registered harness scenario ID (or "all").
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
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"nicbarrier/internal/harness"
)

// docPackages are the packages whose exported surface must be fully
// documented: the public facade and the layers ARCHITECTURE.md leans on.
var docPackages = []string{".", "internal/sim", "internal/netsim", "internal/comm", "internal/obs"}

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
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return true
		}
	}
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
