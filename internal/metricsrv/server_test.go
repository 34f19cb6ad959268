package metricsrv_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nicbarrier"
	"nicbarrier/internal/metricsrv"
	"nicbarrier/internal/obs"
)

// tracedConfig builds a cluster Config with a metronome-armed trace.
func tracedConfig(nodes int, everyUS float64, seed uint64) (nicbarrier.Config, *nicbarrier.Trace) {
	tr := nicbarrier.NewTrace()
	tr.SetMetronome(everyUS)
	return nicbarrier.Config{
		Interconnect: nicbarrier.MyrinetLANaiXP,
		Nodes:        nodes,
		Scheme:       nicbarrier.NICCollective,
		Seed:         seed,
		Trace:        tr,
	}, tr
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, body
}

// The headline test: scrape /metrics and /snapshot continuously over
// HTTP while a churn workload runs, asserting snapshot monotonicity —
// epochs strictly increase across distinct observations, counters never
// regress — and that every snapshot validates against the schema.
// Run under -race in CI.
func TestScrapeDuringChurnMonotone(t *testing.T) {
	cfg, tr := tracedConfig(16, 25, 9)
	srv := metricsrv.New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	run := srv.Register("churn-soak", "churn", tr.Tracer())
	go func() {
		res, err := nicbarrier.MeasureChurn(cfg, nicbarrier.ChurnSpec{
			Tenants: 24, OpsPerTenant: 12,
			ReconfigureEvery: 3,
			Policy:           nicbarrier.AdmitQueue,
		})
		if err != nil {
			run.Finish("", err)
			return
		}
		run.Finish(fmt.Sprintf("%d tenants, %d ops", res.Completed, res.TotalOps), nil)
	}()

	var lastEpoch, lastDone, lastSent uint64
	scrapes := 0
	for run.State() == metricsrv.RunActive || scrapes == 0 {
		code, body := get(t, ts.URL+"/snapshot")
		if code != http.StatusOK {
			t.Fatalf("/snapshot status %d: %s", code, body)
		}
		if _, err := obs.ValidateSnapshotJSON(body); err != nil {
			t.Fatalf("mid-run snapshot does not validate: %v\n%s", err, body)
		}
		var doc obs.SnapshotDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Epoch < lastEpoch {
			t.Fatalf("doc epoch regressed: %d after %d", doc.Epoch, lastEpoch)
		}
		var done, sent uint64
		for _, sc := range doc.Scopes {
			for _, g := range sc.Groups {
				done += g.Ops
				sent += g.Sent
			}
		}
		if done < lastDone || sent < lastSent {
			t.Fatalf("counters regressed: done %d→%d sent %d→%d", lastDone, done, lastSent, sent)
		}
		lastEpoch, lastDone, lastSent = doc.Epoch, done, sent

		if code, body := get(t, ts.URL+"/metrics"); code != http.StatusOK {
			t.Fatalf("/metrics status %d: %s", code, body)
		}
		scrapes++
	}
	if run.State() != metricsrv.RunDone {
		t.Fatalf("run ended %v", run.State())
	}

	// Final state: every tenant's ops visible, Prometheus text carries
	// the headline series.
	_, body := get(t, ts.URL+"/metrics")
	text := string(body)
	for _, want := range []string{
		"# TYPE nicbarrier_ops_total counter",
		`nicbarrier_ops_total{run="churn-soak"`,
		"nicbarrier_snapshot_epoch{",
		"nicbarrier_drops_total{",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text[:min(len(text), 2000)])
		}
	}
	t.Logf("scraped %d times during the run", scrapes)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestEndpointsAndRunRegistry(t *testing.T) {
	cfg, tr := tracedConfig(16, 50, 4)
	srv := metricsrv.New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/snapshot"); code != http.StatusNotFound {
		t.Fatalf("/snapshot with no runs: status %d, want 404", code)
	}

	run := srv.Register("wl", "workload", tr.Tracer())
	res, err := nicbarrier.MeasureWorkload(cfg, nicbarrier.WorkloadSpec{Tenants: 4, OpsPerTenant: 10})
	if err != nil {
		t.Fatalf("MeasureWorkload: %v", err)
	}
	run.Finish(fmt.Sprintf("%d ops", res.TotalOps), nil)

	code, body := get(t, ts.URL+"/runs")
	if code != http.StatusOK {
		t.Fatalf("/runs status %d", code)
	}
	var infos []metricsrv.RunInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatalf("/runs JSON: %v\n%s", err, body)
	}
	if len(infos) != 1 || infos[0].Name != "wl" || infos[0].State != "done" {
		t.Fatalf("/runs rows: %+v", infos)
	}
	p := infos[0].Progress
	if p.Ops != 40 || p.Epoch == 0 || p.Sent == 0 {
		t.Fatalf("run progress: %+v", p)
	}

	// Selector forms: by ID, by name, out of range.
	for _, sel := range []string{"?run=0", "?run=wl", ""} {
		if code, body := get(t, ts.URL+"/snapshot"+sel); code != http.StatusOK {
			t.Fatalf("/snapshot%s status %d: %s", sel, code, body)
		} else if _, err := obs.ValidateSnapshotJSON(body); err != nil {
			t.Fatalf("/snapshot%s invalid: %v", sel, err)
		}
	}
	if code, _ := get(t, ts.URL+"/snapshot?run=7"); code != http.StatusNotFound {
		t.Fatalf("out-of-range run selector: status %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/snapshot?run=nope"); code != http.StatusNotFound {
		t.Fatalf("unknown run name: status %d, want 404", code)
	}
}

// A disarmed-metronome run serves nothing mid-run (nothing published)
// but serves its quiescent state once finished.
func TestDisarmedRunServesQuiescentAfterDone(t *testing.T) {
	tr := nicbarrier.NewTrace() // no metronome
	cfg := nicbarrier.Config{
		Interconnect: nicbarrier.MyrinetLANaiXP, Nodes: 8,
		Scheme: nicbarrier.NICCollective, Trace: tr,
	}
	srv := metricsrv.New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	run := srv.Register("quiet", "workload", tr.Tracer())
	if doc := fetchDoc(t, ts.URL+"/snapshot"); len(doc.Scopes) != 0 {
		t.Fatalf("active disarmed run published scopes: %+v", doc.Scopes)
	}
	if _, err := nicbarrier.MeasureWorkload(cfg, nicbarrier.WorkloadSpec{Tenants: 2, OpsPerTenant: 5}); err != nil {
		t.Fatal(err)
	}
	run.Finish("done", nil)
	doc := fetchDoc(t, ts.URL+"/snapshot")
	if len(doc.Scopes) != 1 || doc.Epoch != 0 {
		t.Fatalf("finished disarmed run: %d scopes, epoch %d", len(doc.Scopes), doc.Epoch)
	}
	var done uint64
	for _, g := range doc.Scopes[0].Groups {
		done += g.Ops
	}
	if done != 10 {
		t.Fatalf("quiescent done = %d, want 10", done)
	}
}

func fetchDoc(t *testing.T, url string) obs.SnapshotDoc {
	t.Helper()
	code, body := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, code)
	}
	if _, err := obs.ValidateSnapshotJSON(body); err != nil {
		t.Fatalf("GET %s: invalid snapshot: %v", url, err)
	}
	var doc obs.SnapshotDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// /stream delivers SSE snapshot events with increasing epochs and a
// final done event when the run completes.
func TestStreamDeliversEpochs(t *testing.T) {
	cfg, tr := tracedConfig(16, 25, 2)
	srv := metricsrv.New()
	srv.StreamInterval = 10 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	run := srv.Register("streamed", "workload", tr.Tracer())
	go func() {
		// Delay launch so the stream attaches while the run is active.
		time.Sleep(50 * time.Millisecond)
		_, err := nicbarrier.MeasureWorkload(cfg, nicbarrier.WorkloadSpec{Tenants: 6, OpsPerTenant: 30})
		run.Finish("ok", err)
	}()

	resp, err := http.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var events, lastEpoch uint64
	var event string
	sawDone := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var doc obs.SnapshotDoc
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &doc); err != nil {
				t.Fatalf("stream payload: %v", err)
			}
			if doc.SchemaVersion != obs.SnapshotSchemaVersion {
				t.Fatalf("stream payload schema %d", doc.SchemaVersion)
			}
			if doc.Epoch < lastEpoch {
				t.Fatalf("stream epoch regressed: %d after %d", doc.Epoch, lastEpoch)
			}
			lastEpoch = doc.Epoch
			events++
			if event == "done" {
				sawDone = true
			}
		}
		if sawDone {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if events < 2 || !sawDone {
		t.Fatalf("stream: %d events, done=%v", events, sawDone)
	}
}
