package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"nicbarrier/internal/harness"
)

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
	for name, text := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
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
	for name, text := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
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
