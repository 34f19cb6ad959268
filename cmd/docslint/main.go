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
//     of metrics in bench/baseline.json.
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
	"strings"
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
