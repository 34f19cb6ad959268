// Package metricsrv is the live observability service over the obs
// metrics layer: an HTTP surface that exposes running (and finished)
// simulation workloads' counters and per-tenant latency histograms —
// Prometheus text on /metrics, schema-versioned JSON on /snapshot, SSE
// deltas on /stream, a run registry on /runs, and /healthz.
//
// The service never touches live accumulators: everything it serves
// comes from the publication path in internal/obs (epoch-stamped
// immutable snapshots installed by each scope's writer goroutine), so
// scraping is race-free while engines run and perturbs nothing — the
// simulations' virtual-time results are bit-identical whether or not
// anyone is watching.
package metricsrv

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"nicbarrier/internal/obs"
)

// runState is a run's lifecycle position.
type runState int

// Run states.
const (
	// runActive means the run's workload goroutine is still executing.
	runActive runState = iota
	// runDone means it finished cleanly.
	runDone
	// runFailed means it returned an error.
	runFailed
)

// String implements fmt.Stringer.
func (s runState) String() string {
	switch s {
	case runActive:
		return "active"
	case runDone:
		return "done"
	case runFailed:
		return "failed"
	default:
		return fmt.Sprintf("RunState(%d)", int(s))
	}
}

// Run is one registered workload: a name, the tracer its clusters
// publish into, and completion state. The server reads its metrics
// exclusively through the tracer's published snapshots.
type Run struct {
	// ID is the server-assigned registry index; Name the caller's label
	// (unique per server not required); Scenario a free-form kind tag
	// ("workload", "churn", "chaos", ...).
	ID       int
	Name     string
	Scenario string

	tr *obs.Tracer

	mu      sync.Mutex
	state   runState
	summary string
	err     error
}

// currentState reports the run's current lifecycle position.
func (r *Run) currentState() runState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Finish marks a run complete: err nil means done, non-nil failed;
// summary is the human-readable one-liner /runs shows.
func (r *Run) Finish(summary string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.summary = summary
	r.err = err
	if err != nil {
		r.state = runFailed
	} else {
		r.state = runDone
	}
}

// snap returns the run's serveable metric state: the published live
// snapshots while anything has published (covering both mid-run reads
// and the final publication of metronome-armed runs), else — only once
// the run has finished — the quiescent snapshot, so disarmed runs still
// report their end state. An active run that has not published yet
// serves empty.
func (r *Run) snap() obs.Snapshot {
	if live := r.tr.LiveSnapshot(); len(live.Scopes) > 0 {
		return live
	}
	if r.currentState() == runActive {
		return obs.Snapshot{}
	}
	return r.tr.Snapshot()
}

// Server is the metrics service: a run registry plus the HTTP handlers.
// Construct with New, register runs with Register, and mount Handler on
// any http.Server.
type Server struct {
	mu   sync.Mutex
	runs []*Run

	// StreamInterval is the wall-clock poll cadence of /stream (how
	// often the handler checks for a new epoch); default 200ms.
	StreamInterval time.Duration
}

// New returns an empty metrics server.
func New() *Server { return &Server{StreamInterval: 200 * time.Millisecond} }

// Register adds a run whose workload the caller drives itself; mark it
// complete with the returned Run's Finish.
func (s *Server) Register(name, scenario string, tr *obs.Tracer) *Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := &Run{ID: len(s.runs), Name: name, Scenario: scenario, tr: tr}
	s.runs = append(s.runs, r)
	return r
}

// allRuns returns the registered runs in registration order.
func (s *Server) allRuns() []*Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Run, len(s.runs))
	copy(out, s.runs)
	return out
}

// Handler returns the service's HTTP mux: /healthz, /metrics,
// /snapshot, /stream and /runs.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/stream", s.handleStream)
	mux.HandleFunc("/runs", s.handleRuns)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// runFromQuery resolves the ?run= selector: a registry ID, a run name
// (latest match wins), or absent — which selects the latest run.
func (s *Server) runFromQuery(r *http.Request) (*Run, error) {
	runs := s.allRuns()
	if len(runs) == 0 {
		return nil, fmt.Errorf("no runs registered")
	}
	sel := r.URL.Query().Get("run")
	if sel == "" {
		return runs[len(runs)-1], nil
	}
	if id, err := strconv.Atoi(sel); err == nil {
		if id < 0 || id >= len(runs) {
			return nil, fmt.Errorf("run %d outside registry of %d", id, len(runs))
		}
		return runs[id], nil
	}
	for i := len(runs) - 1; i >= 0; i-- {
		if runs[i].Name == sel {
			return runs[i], nil
		}
	}
	return nil, fmt.Errorf("no run named %q", sel)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writePrometheus(w, s.allRuns())
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	run, err := s.runFromQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	doc := obs.NewSnapshotDoc(run.snap())
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// handleStream serves SSE: one `snapshot` event per new publication
// epoch (checked every StreamInterval), then a final `done` event when
// the run completes. Payloads are SnapshotDoc JSON.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	run, err := s.runFromQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	interval := s.StreamInterval
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()

	emit := func(event string, doc obs.SnapshotDoc) bool {
		data, err := json.Marshal(doc)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	var lastEpoch uint64
	sent := false
	for {
		doc := obs.NewSnapshotDoc(run.snap())
		if !sent || doc.Epoch > lastEpoch {
			if !emit("snapshot", doc) {
				return
			}
			lastEpoch = doc.Epoch
			sent = true
		}
		if run.currentState() != runActive {
			emit("done", obs.NewSnapshotDoc(run.snap()))
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
	}
}

// runInfo is one /runs row: identity, lifecycle state and live
// progress aggregated over the run's published snapshot.
type runInfo struct {
	ID       int         `json:"id"`
	Name     string      `json:"name"`
	Scenario string      `json:"scenario"`
	State    string      `json:"state"`
	Summary  string      `json:"summary,omitempty"`
	Error    string      `json:"error,omitempty"`
	Progress runProgress `json:"progress"`
}

// runProgress aggregates a run's published metrics across its scopes
// and groups: completed operations, wire accounting with the
// drop-reason breakdown, and the recovery counters.
type runProgress struct {
	Epoch       uint64         `json:"epoch"`
	AtUS        float64        `json:"atUS"`
	Scopes      int            `json:"scopes"`
	EventsFired uint64         `json:"eventsFired"`
	Ops         uint64         `json:"ops"`
	Sent        uint64         `json:"sent"`
	Dropped     uint64         `json:"dropped"`
	Drops       obs.DropCounts `json:"drops"`
	Timeouts    uint64         `json:"timeouts"`
	Evictions   uint64         `json:"evictions"`
	Retries     uint64         `json:"retries"`
}

// info reports the run's current registry row.
func (r *Run) info() runInfo {
	r.mu.Lock()
	info := runInfo{
		ID: r.ID, Name: r.Name, Scenario: r.Scenario,
		State:   r.state.String(),
		Summary: r.summary,
	}
	if r.err != nil {
		info.Error = r.err.Error()
	}
	r.mu.Unlock()

	snap := r.snap()
	p := &info.Progress
	p.Scopes = len(snap.Scopes)
	for _, sc := range snap.Scopes {
		p.Epoch += sc.Epoch
		if sc.AtUS > p.AtUS {
			p.AtUS = sc.AtUS
		}
		p.EventsFired += sc.EventsFired
		for _, g := range sc.Groups {
			p.Ops += g.Ops
			p.Sent += g.Sent
			p.Dropped += g.Dropped
			p.Drops.Injected += g.Drops.Injected
			p.Drops.MidRoute += g.Drops.MidRoute
			p.Drops.Rejected += g.Drops.Rejected
			p.Drops.FailStop += g.Drops.FailStop
			p.Timeouts += g.Timeouts
			p.Evictions += g.Evictions
			p.Retries += g.Retries
		}
	}
	return info
}

func (s *Server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	runs := s.allRuns()
	infos := make([]runInfo, len(runs))
	for i, r := range runs {
		infos[i] = r.info()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(infos)
}
