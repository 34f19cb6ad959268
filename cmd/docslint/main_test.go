package main

import (
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"nicbarrier/internal/harness"
)

// writeFiles writes a fixture tree under root: file contents by path.
func writeFiles(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for name, text := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// mustLoad loads the fixture module under root, failing the test if it
// does not type-check.
func mustLoad(t *testing.T, root string) *moduleChecker {
	t.Helper()
	m, failed := loadModule(root)
	if len(failed) > 0 {
		t.Fatalf("load %s: %q", root, failed)
	}
	return m
}

// repo is the repository's own module, loaded once for every
// TestRepository* test of a check that reads Go declarations.
var repo = sync.OnceValues(func() (*moduleChecker, []string) { return loadModule("../..") })

// repoModule returns the shared load of the repository's module.
func repoModule(t *testing.T) *moduleChecker {
	t.Helper()
	m, failed := repo()
	if len(failed) > 0 {
		t.Fatalf("load: %q", failed)
	}
	return m
}

// A fixture tree whose baseline holds three metrics: every quote of
// another count is reported with its line, hyphenated, qualified or
// broken across lines; quotes of three and unrelated numbers are not.
func TestLintMetricCounts(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"bench/baseline.json": `{"schema": 1, "metrics": [{"name": "a"}, {"name": "b"}, {"name": "c"}]}`,
		"README.md":           "The 3-metric baseline.\nAll 530 metrics stay identical.\n",
		"ARCHITECTURE.md":     "Runs 12 scenarios.\nThe 4\ngated simulated metrics.\n",
		"ROADMAP.md":          "All 3 baseline metrics, 1,024 nodes, a 2-metric toy.\n",
	}
	writeFiles(t, root, files)
	want := []string{
		"README.md:2: quotes 530 baseline metrics, bench/baseline.json has 3",
		"ARCHITECTURE.md:2: quotes 4 baseline metrics, bench/baseline.json has 3",
		"ROADMAP.md:1: quotes 2 baseline metrics, bench/baseline.json has 3",
	}
	if got := lintMetricCounts(root); !slices.Equal(got, want) {
		t.Fatalf("violations:\n%q\nwant:\n%q", got, want)
	}
}

// The repository's own documents quote the committed baseline's count.
func TestRepositoryMetricCounts(t *testing.T) {
	if got := lintMetricCounts("../.."); len(got) != 0 {
		t.Fatalf("stale metric counts: %q", got)
	}
}

// A fixture tree with two commands: go run/go build lines that name a
// missing directory, an undefined flag or an unregistered scenario are
// reported with their line; defined flags (including -h and Var forms),
// registered IDs, "all", <placeholders>, go build's own flags and
// "-list | -fig <id>" alternatives are not.
func TestLintCommands(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"cmd/barrier-bench/main.go": `package main

import "flag"

func main() {
	fs := flag.NewFlagSet("barrier-bench", flag.ContinueOnError)
	fs.String("fig", "all", "")
	fs.Bool("list", false, "")
	var seed uint64
	fs.Uint64Var(&seed, "seed", 1, "")
}
`,
		"cmd/barrier-bench/main_test.go": `package main

import "flag"

var _ = flag.Bool("testonly", false, "")
`,
		"README.md": "```\n" +
			"go run ./cmd/barrier-bench -fig fig5 -seed 2   # ok\n" +
			"go run ./cmd/barrier-bench -fig=all -h\n" +
			"go run ./cmd/nosuch -list\n" +
			"go run ./cmd/barrier-bench -fig nope -testonly\n" +
			"go build -o bb ./cmd/barrier-bench && ./bb -bogus\n" +
			"go run ./cmd/barrier-bench -list | grep fig5\n" +
			"```\n",
		"ARCHITECTURE.md":                "Run `go run ./cmd/barrier-bench -fig fig5,packets,gone` or `go build ./cmd/gone`.\n",
		".claude/skills/verify/SKILL.md": "- `go run ./cmd/barrier-bench -list | -fig <id>` and [-seed 3] ok; `go run ./cmd/barrier-bench -tsv`\n",
	}
	writeFiles(t, root, files)
	want := []string{
		"README.md:4: go run ./cmd/nosuch: no such command directory",
		"README.md:5: go run ./cmd/barrier-bench: -fig nope is not a registered scenario",
		"README.md:5: go run ./cmd/barrier-bench: flag -testonly is not defined by cmd/barrier-bench",
		"ARCHITECTURE.md:1: go run ./cmd/barrier-bench: -fig gone is not a registered scenario",
		"ARCHITECTURE.md:1: go build ./cmd/gone: no such command directory",
		".claude/skills/verify/SKILL.md:1: go run ./cmd/barrier-bench: flag -tsv is not defined by cmd/barrier-bench",
	}
	if got := lintCommands(root, []string{"fig5", "packets"}); !slices.Equal(got, want) {
		t.Fatalf("violations:\n%q\nwant:\n%q", got, want)
	}
}

// The repository's own documents name real commands, flags and
// scenario IDs.
func TestRepositoryCommands(t *testing.T) {
	if got := lintCommands("../..", harness.Experiments()); len(got) != 0 {
		t.Fatalf("stale command lines: %q", got)
	}
}

// A fixture tree with the root package and one internal package:
// citations of undeclared identifiers and of members a type lacks,
// literal keys that are not fields and calls of methods no type declares
// are reported with their line; declared functions, types, methods and
// const-block members (iota continuations included), package files,
// paths, unknown packages, method chains on declared types, declared and
// interface methods and standard library calls are not.
func TestLintCitations(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module nicbarrier\n\ngo 1.23\n",
		"nicbarrier.go": `package nicbarrier

type Config struct {
	Nodes int
	Trace *Trace
}

type Trace struct{}
`,
		"nicbarrier_test.go": "package nicbarrier\n\nfunc TestOnly() {}\n\nfunc (t *Trace) OnlyInTest() {}\n",
		"internal/comm/comm.go": `package comm

type Kind int

const (
	OpBarrier Kind = iota
	OpBroadcast
)

type Cluster struct{}

func (c *Cluster) SetTracer() {}

type Impairment interface{ Inject() }

func RunWorkload() {}
`,
		"README.md": "Use `nicbarrier.Config` with `comm.RunWorkload` and `comm.OpBroadcast`.\n" +
			"Gone: `comm.RunChurnSharded`, `nicbarrier.TestOnly`, `comm.SetTracer`.\n" +
			"```go\n" +
			"c, err := nicbarrier.NewCluster(nicbarrier.Config{\n" +
			"    Nodes:      8,\n" +
			"    Partitions: 4,\n" +
			"})\n" +
			"```\n" +
			"```go\n" +
			"c.SetTracer()\n" +
			"imp.Inject()\n" +
			"fmt.Println(filepath.Base(\"x\"))\n" +
			"c.SetTracer().RunForever(5)\n" +
			"tr.OnlyInTest()\n" +
			"```\n",
		"ARCHITECTURE.md": "See internal/comm/comm.go, `comm.go`, nicbarrier/internal/comm.Cluster, " +
			"`comm.Cluster.SetTracer`, `other.Thing` and `nicbarrier.Trace`.\n" +
			"Gone: `comm.Cluster.Gone`.\n",
	}
	writeFiles(t, root, files)
	want := []string{
		"README.md:2: comm.RunChurnSharded is not declared in package comm",
		"README.md:2: nicbarrier.TestOnly is not declared in package nicbarrier",
		"README.md:2: comm.SetTracer is not declared in package comm",
		"README.md:4: nicbarrier.NewCluster is not declared in package nicbarrier",
		"README.md:6: nicbarrier.Config has no field Partitions",
		"README.md:13: c.SetTracer().RunForever: no type in the module declares method RunForever",
		"README.md:14: tr.OnlyInTest: no type in the module declares method OnlyInTest",
		"ARCHITECTURE.md:2: comm.Cluster has no field or method Gone",
	}
	if got := lintCitations(mustLoad(t, root)); !slices.Equal(got, want) {
		t.Fatalf("violations:\n%q\nwant:\n%q", got, want)
	}
}

// The repository's own documents cite only declared identifiers and
// fields.
func TestRepositoryCitations(t *testing.T) {
	if got := lintCitations(repoModule(t)); len(got) != 0 {
		t.Fatalf("stale citations: %q", got)
	}
}

// A fixture tree citing markdown files from Go source: a name missing
// from the repository is reported with its file and line, also in the
// fig7 table note that cited a nonexistent EXPERIMENTS.md; names that
// resolve from the root or the citing file's directory, and citations
// in tests and testdata, are not.
func TestLintDocRefs(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"README.md":                "",
		"internal/x/NOTES.md":      "",
		"internal/x/testdata/a.go": "// see MISSING.md\n",
		"internal/x/x_test.go":     "package x // see MISSING.md\n",
		"internal/x/x.go": "package x\n\n// See README.md and NOTES.md.\n" +
			"var note = \"divergence: PE is not faster than DS at non-power-of-two sizes here; see EXPERIMENTS.md\"\n",
	}
	writeFiles(t, root, files)
	want := []string{filepath.Join("internal", "x", "x.go") + ":4: cites EXPERIMENTS.md, which does not exist"}
	if got := lintDocRefs(root); !slices.Equal(got, want) {
		t.Fatalf("violations:\n%q\nwant:\n%q", got, want)
	}
}

// The repository's Go sources cite only markdown files that exist.
func TestRepositoryDocRefs(t *testing.T) {
	if got := lintDocRefs("../.."); len(got) != 0 {
		t.Fatalf("dangling markdown citations: %q", got)
	}
}

// A fixture module with one internal package: an export no other
// package names is reported, also when only its own tests use it; a
// type reached only through a used signature, the constants of a kept
// type (typed, implicitly repeated and derived), an error sentinel and
// a name only a nested module such as perfbench/ uses are not.
func TestLintExports(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module m\n\ngo 1.23\n",
		"internal/p/p.go": `package p

import "errors"

type Kind int

const (
	KindA Kind = iota
	KindB
)

type Duration int64

const (
	Unit Duration = 1
	Big           = 1000 * Unit
)

var ErrGone = errors.New("gone")

type Options struct {
	Shape Shape
	extra Extra
}

type Shape struct{ Wait Duration }

type Extra struct{}

type Planted struct{}

func Used(o Options) Kind { return KindA }

func OnlyPerfbench() {}

func Unused() {}

func helper() {}
`,
		"internal/p/p_test.go": "package p\n\nvar _ = Unused\n",
		"cmd/x/main.go": `package main

import "m/internal/p"

func main() { p.Used(p.Options{}) }
`,
		"perfbench/go.mod": "module m/perfbench\n\nrequire m v0.0.0\n\nreplace m => ../\n",
		"perfbench/main.go": `package main

import alias "m/internal/p"

func main() { alias.OnlyPerfbench() }
`,
	}
	writeFiles(t, root, files)
	p := filepath.Join("internal", "p", "p.go")
	want := []string{
		p + ":28: p.Extra is exported but no other package uses it",
		p + ":30: p.Planted is exported but no other package uses it",
		p + ":36: p.Unused is exported but no other package uses it",
	}
	if got := lintExports(mustLoad(t, root)); !slices.Equal(got, want) {
		t.Fatalf("violations:\n%q\nwant:\n%q", got, want)
	}
}

// Every export of the repository's internal packages is used across a
// package boundary.
func TestRepositoryExports(t *testing.T) {
	if got := lintExports(repoModule(t)); len(got) != 0 {
		t.Fatalf("unused internal exports: %q", got)
	}
}

// A fixture module with one internal package: an exported method no
// other package calls is reported, on an exported or an unexported
// type, also when its own tests call it; a method another package calls
// (a nested module such as perfbench/ counts) or takes as a value, and
// one an interface requires (one of the module's, fmt.Stringer's String,
// error's Error) are not.
func TestLintMethods(t *testing.T) {
	root := t.TempDir()
	writeFiles(t, root, map[string]string{
		"go.mod": "module m\n\ngo 1.23\n",
		"internal/p/p.go": `package p

type Event interface{ Fire() }

type T struct{}

func (T) Called()            {}
func (T) Value()             {}
func (T) ByPerfbench()       {}
func (T) Fire()              {}
func (T) String() string     { return "" }
func (*T) Error() string     { return "" }
func (T) OnlyTests()         {}
func (*T) Unused()           {}
func (T) unexported()        {}
func (T) used()              {}
func (T) onlyTestsInternal() {}
func (T) fire()              {}

type hidden struct{}

func (hidden) Exported() {}

type firer interface{ fire() }

func Helped()     { helper(); T{}.used() }
func helper()     {}
func orphan()     {}
func testHelper() {}
`,
		"internal/p/p_test.go": "package p\n\nvar _ = T.OnlyTests\nvar _ = T.onlyTestsInternal\nvar _ = testHelper\n",
		"cmd/x/main.go": `package main

import (
	"fmt"

	"m/internal/p"
)

func main() {
	var t p.T
	t.Called()
	f := t.Value
	fmt.Println(t, f)
	p.Helped()
	run()
}

func run()    {}
func unused() {}
`,
		"perfbench/go.mod": "module m/perfbench\n\nrequire m v0.0.0\n\nreplace m => ../\n",
		"perfbench/main.go": `package main

import "m/internal/p"

func main() { p.T{}.ByPerfbench() }
`,
	})
	p := filepath.Join("internal", "p", "p.go")
	want := []string{
		filepath.Join("cmd", "x", "main.go") + ":19: main.unused is unexported and no non-test file uses it",
		p + ":13: p.T.OnlyTests is exported but no other package calls it",
		p + ":14: p.T.Unused is exported but no other package calls it",
		p + ":15: p.T.unexported is unexported and no non-test file uses it",
		p + ":17: p.T.onlyTestsInternal is unexported and no non-test file uses it",
		p + ":22: p.hidden.Exported is exported but no other package calls it",
		p + ":28: p.orphan is unexported and no non-test file uses it",
		p + ":29: p.testHelper is unexported and no non-test file uses it",
	}
	if got := lintMethods(mustLoad(t, root)); !slices.Equal(got, want) {
		t.Fatalf("violations:\n%q\nwant:\n%q", got, want)
	}
}

// Every exported method of the repository's internal packages is
// called across a package boundary or required by an interface, and
// every unexported function and method of the module is used by
// non-test code.
func TestRepositoryMethods(t *testing.T) {
	if got := lintMethods(repoModule(t)); len(got) != 0 {
		t.Fatalf("unused internal methods: %q", got)
	}
}

// A fixture module with two packages: an undocumented exported function,
// method on an exported type, var and type in an undocumented group are
// reported with their line, and so is a package without a package
// comment; documented declarations, a grouped const covered by its block
// comment, unexported names and a method on an unexported type are not.
func TestLintPackage(t *testing.T) {
	root := t.TempDir()
	writeFiles(t, root, map[string]string{
		"go.mod": "module m\n\ngo 1.23\n",
		"p/p.go": `// Package p is documented.
package p

func Undocumented() {}

// T is documented.
type T struct{}

func (T) Method() {}

// Grouped constants share the block's comment.
const (
	A = 1
	B = 2
)

type hidden struct{}

func (hidden) Exported() {}

func (*hidden) also() {}

var V = 1

type (
	// U is documented in its group.
	U int
	W int
)
`,
		"q/q.go": "package q\n\n// F is documented.\nfunc F() {}\n",
	})
	p := filepath.Join(root, "p", "p.go")
	want := []string{
		p + ":4: exported function Undocumented has no doc comment",
		p + ":9: exported method Method has no doc comment",
		p + ":23: exported var V has no doc comment",
		p + ":28: exported type W has no doc comment",
		filepath.Join(root, "q") + ": package q has no package comment",
	}
	m := mustLoad(t, root)
	got := append(lintPackage(m, "p"), lintPackage(m, "q")...)
	if !slices.Equal(got, want) {
		t.Fatalf("violations:\n%q\nwant:\n%q", got, want)
	}
}

// A fixture document: a broken relative link is reported with its line,
// also with a fragment; a fragment on an existing file is stripped, and
// http, mailto and in-page links are skipped.
func TestLintLinks(t *testing.T) {
	root := t.TempDir()
	writeFiles(t, root, map[string]string{
		"docs/a.md": "",
		"README.md": "[ok](docs/a.md) and [gone](docs/missing.md).\n" +
			"[part](docs/a.md#section), [web](https://example.com/x.md), [mail](mailto:a@b.c), [top](#top).\n" +
			"[stale](missing.md#x)\n",
	})
	want := []string{
		`README.md:1: broken link "docs/missing.md"`,
		`README.md:3: broken link "missing.md#x"`,
	}
	if got := lintLinks(root, "README.md"); !slices.Equal(got, want) {
		t.Fatalf("violations:\n%q\nwant:\n%q", got, want)
	}
}

// The repository's documented packages document every exported
// identifier and carry a package comment.
func TestRepositoryPackages(t *testing.T) {
	m := repoModule(t)
	for _, pkg := range docPackages {
		if got := lintPackage(m, pkg); len(got) != 0 {
			t.Errorf("undocumented: %q", got)
		}
	}
}

// The repository's documents link only to files that exist.
func TestRepositoryLinks(t *testing.T) {
	for _, name := range linkFiles {
		if got := lintLinks("../..", name); len(got) != 0 {
			t.Errorf("broken links: %q", got)
		}
	}
}

// A fixture document citing source lines: a citation whose line has
// shifted away from the names its sentence backticks, a missing file, a
// line past the end of its file and a shifted bare `:N` are reported
// with their line; citations whose line holds one of those names, also
// through a bare `:N` and across a line break, and a host:port span
// are not.
func TestLintLineCites(t *testing.T) {
	root := t.TempDir()
	writeFiles(t, root, map[string]string{
		"internal/x/x.go": "package x\n\nfunc Start() {}\n\nfunc Stop() {}\n",
		"ROADMAP.md": "`Start` and `Stop` (`internal/x/x.go:3`, `:5`) are fine, on `localhost:8080` too.\n" +
			"So is `Stop`, in\n(`internal/x/x.go:5`). But `Start` is not at `internal/x/x.go:5`.\n" +
			"- `Gone` (`internal/x/gone.go:1`) and `Start` (`internal/x/x.go:9`).\n" +
			"- `Start` is at `internal/x/x.go:3`. `Stop` is not (`:3`).\n",
	})
	x := "internal/x/x.go"
	want := []string{
		"ROADMAP.md:3: " + x + ":5 holds none of the names cited beside it: Start",
		"ROADMAP.md:4: internal/x/gone.go:1: no such file",
		"ROADMAP.md:4: " + x + ":9: " + x + " has 5 lines",
		"ROADMAP.md:5: " + x + ":3 holds none of the names cited beside it: Stop",
	}
	if got := lintLineCites(root, "ROADMAP.md"); !slices.Equal(got, want) {
		t.Fatalf("violations:\n%q\nwant:\n%q", got, want)
	}
}

// The repository's documents cite source lines that hold what they cite.
func TestRepositoryLineCites(t *testing.T) {
	for _, name := range linkFiles {
		if got := lintLineCites("../..", name); len(got) != 0 {
			t.Errorf("stale line citations: %q", got)
		}
	}
}
