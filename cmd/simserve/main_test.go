package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nicbarrier/internal/harness"
	"nicbarrier/internal/metricsrv"
	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
)

// syncBuffer is a goroutine-safe writer the server goroutine can log to
// while the test polls its contents.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// -list prints the harness registry: the same IDs, in the same order,
// as barrier-bench -list.
func TestListScenarios(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := realMain([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		ids = append(ids, strings.Fields(line)[0])
	}
	if want := harness.Experiments(); !slices.Equal(ids, want) {
		t.Fatalf("-list IDs = %v, want the registry %v", ids, want)
	}
}

func TestBadFlags(t *testing.T) {
	cases := [][]string{
		{"-scenario", "no-such-scenario"},
		{"-scenario", "fig6,no-such-scenario"},
		{"-metronome", "-1"},
		{"-loop", "-once"},
		{"-addr", "not-an-address"},
		{"-bogus-flag"},
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := realMain(args, &out, &errOut); code == 0 {
			t.Errorf("realMain(%v) exited 0, want failure", args)
		}
	}
}

var listenRE = regexp.MustCompile(`listening on (http://\S+)`)

// End-to-end: start the server on an ephemeral port with one registered
// churn scenario, scrape /healthz, /runs, /metrics and /snapshot while
// it serves, and assert the run reaches done with validated metrics.
// The server goroutine is intentionally left running; the test binary's
// exit reclaims it.
func TestServeScrapesEndToEnd(t *testing.T) {
	out := &syncBuffer{}
	go realMain([]string{
		"-addr", "127.0.0.1:0",
		"-scenario", "churn-policies",
		"-metronome", "25",
	}, out, out)

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, body
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}

	// Poll /runs until the scenario completes, scraping the other
	// endpoints along the way.
	var infos []struct {
		State, Error string
		Progress     struct{ Epoch, Ops uint64 }
	}
	for {
		code, body := get("/runs")
		if code != http.StatusOK {
			t.Fatalf("/runs status %d", code)
		}
		if err := json.Unmarshal(body, &infos); err != nil {
			t.Fatalf("/runs JSON: %v\n%s", err, body)
		}
		if len(infos) == 1 && infos[0].State != "active" {
			break
		}
		if code, body := get("/snapshot"); code != http.StatusOK {
			t.Fatalf("/snapshot status %d: %s", code, body)
		} else if _, err := obs.ValidateSnapshotJSON(body); err != nil {
			t.Fatalf("mid-run /snapshot invalid: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never completed:\n%s", out.String())
		}
	}
	if infos[0].State != "done" {
		t.Fatalf("run ended %q (%s):\n%s", infos[0].State, infos[0].Error, out.String())
	}
	if infos[0].Progress.Ops == 0 || infos[0].Progress.Epoch == 0 {
		t.Fatalf("finished run has empty progress: %+v", infos[0].Progress)
	}

	_, body := get("/metrics")
	if !strings.Contains(string(body), `nicbarrier_ops_total{run="churn-policies"`) {
		t.Fatalf("/metrics missing churn-policies ops series:\n%.2000s", body)
	}
	code, body := get("/snapshot?run=churn-policies")
	if code != http.StatusOK {
		t.Fatalf("/snapshot?run=churn-policies status %d", code)
	}
	if _, err := obs.ValidateSnapshotJSON(body); err != nil {
		t.Fatalf("final /snapshot invalid: %v", err)
	}
	if !strings.Contains(out.String(), `"churn-policies" done:`) {
		t.Fatalf("server log missing completion line:\n%s", out.String())
	}
}

// A scrape never repeats a series: scope names repeat within a run
// (both scenarios measure some point twice), so every sample also
// carries its scope's index in the run.
func TestMetricsSeriesUnique(t *testing.T) {
	srv := metricsrv.New()
	for _, id := range []string{"churn-policies", "faults-impair"} {
		s, ok := harness.ScenarioByID(id)
		if !ok {
			t.Fatalf("scenario %q not registered", id)
		}
		tr := obs.NewTracerSize(256)
		tr.SetMetronome(sim.Micros(25))
		cfg := harness.Quick()
		cfg.Trace = tr
		run := srv.Register(id, id, tr)
		s.Points(cfg)
		run.Finish("", nil)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	seen := map[string]int{}
	for i, line := range strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		if prev, dup := seen[series]; dup {
			t.Fatalf("lines %d and %d repeat series %s", prev+1, i+1, series)
		}
		seen[series] = i
	}
	if len(seen) == 0 {
		t.Fatal("scrape holds no samples")
	}
}

// -once mode runs the scenarios and exits 0 on its own.
func TestOnceModeExits(t *testing.T) {
	out := &syncBuffer{}
	codeCh := make(chan int, 1)
	go func() {
		codeCh <- realMain([]string{
			"-addr", "127.0.0.1:0",
			"-scenario", "fig6",
			"-once",
		}, out, out)
	}()
	select {
	case code := <-codeCh:
		if code != 0 {
			t.Fatalf("-once exited %d:\n%s", code, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("-once never exited:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "scenarios complete") {
		t.Fatalf("missing completion banner:\n%s", out.String())
	}
}
