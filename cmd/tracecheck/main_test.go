package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tc(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestValidTrace(t *testing.T) {
	path := write(t, "ok.json",
		`{"traceEvents":[{"name":"pkt-inject","ph":"i","pid":1,"tid":2,"ts":1.5,"s":"t"}]}`)
	code, out, errb := tc(t, path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "ok, 1 events") {
		t.Fatalf("output: %s", out)
	}
}

func TestInvalidTrace(t *testing.T) {
	cases := map[string]string{
		"not-json.json":  `nope`,
		"no-events.json": `{"other":1}`,
		"bad-event.json": `{"traceEvents":[{"name":"x","pid":1}]}`,
		"x-no-dur.json":  `{"traceEvents":[{"name":"x","ph":"X","pid":1,"ts":1}]}`,
	}
	for name, content := range cases {
		if code, _, errb := tc(t, write(t, name, content)); code != 1 {
			t.Errorf("%s: exit %d (stderr %q), want 1", name, code, errb)
		}
	}
}

func TestMissingFileAndUsage(t *testing.T) {
	if code, _, _ := tc(t); code != 2 {
		t.Fatalf("no args: exit %d, want 2", code)
	}
	if code, _, errb := tc(t, "/nonexistent/trace.json"); code != 1 || errb == "" {
		t.Fatalf("missing file: exit %d stderr %q, want 1 with message", code, errb)
	}
}

// The committed golden snapshot — generated from a real metronome-armed
// workload run — must keep validating; a schema change that breaks it
// needs a SnapshotSchemaVersion bump and a regenerated golden file.
func TestGoldenSnapshotValidates(t *testing.T) {
	code, out, errb := tc(t, "-snapshot", filepath.Join("testdata", "snapshot.json"))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "ok, schema v3, 1 scopes") {
		t.Fatalf("output: %s", out)
	}
}

func TestInvalidSnapshots(t *testing.T) {
	cases := map[string]string{
		"not-json.json":     `nope`,
		"wrong-ver.json":    `{"schemaVersion":99,"epoch":0,"atUS":0,"scopes":[]}`,
		"bad-epoch.json":    `{"schemaVersion":3,"epoch":7,"atUS":0,"scopes":[{"name":"s","epoch":1,"atUS":0,"eventsFired":0,"eventsCancelled":0,"records":0,"groups":[]}]}`,
		"noname-scope.json": `{"schemaVersion":3,"epoch":0,"atUS":0,"scopes":[{"name":"","epoch":0,"atUS":0,"eventsFired":0,"eventsCancelled":0,"records":0,"groups":[]}]}`,
	}
	for name, content := range cases {
		if code, _, errb := tc(t, "-snapshot", write(t, name, content)); code != 1 {
			t.Errorf("%s: exit %d (stderr %q), want 1", name, code, errb)
		}
	}
}

// A Chrome trace is not a snapshot and vice versa: the modes must not
// accept each other's format.
func TestModesRejectCrossFormat(t *testing.T) {
	trace := write(t, "trace.json",
		`{"traceEvents":[{"name":"pkt-inject","ph":"i","pid":1,"tid":2,"ts":1.5,"s":"t"}]}`)
	if code, _, _ := tc(t, "-snapshot", trace); code != 1 {
		t.Fatalf("-snapshot accepted a Chrome trace (exit %d)", code)
	}
	if code, _, _ := tc(t, filepath.Join("testdata", "snapshot.json")); code != 1 {
		t.Fatalf("trace mode accepted a snapshot (exit %d)", code)
	}
}

func TestMixedFilesStillChecksAll(t *testing.T) {
	good := write(t, "good.json", `{"traceEvents":[]}`)
	bad := write(t, "bad.json", `broken`)
	code, out, _ := tc(t, bad, good)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(out, "good.json: ok") {
		t.Fatalf("good file not reported after bad one:\n%s", out)
	}
}
