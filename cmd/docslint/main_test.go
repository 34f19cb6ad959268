package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
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
