// Package benchreg is the benchmark/regression layer of the repository:
// it turns the harness's experiment sweeps into machine-readable reports
// (BENCH_<rev>.json) and compares them against a committed baseline with
// per-metric thresholds. Every future scaling or fast-path PR gates its
// perf claims through this package.
//
// A report captures, for every registered harness scenario, each flattened
// data point (simulated microseconds, packet counts, paper-ratio
// comparisons) plus the wall-clock cost of reproducing the scenario — the
// speed of the simulator itself. Simulated values are bit-deterministic
// for a fixed seed, so they gate tightly; wall-clock values are noisy and
// gate loosely or not at all (see compare.go).
package benchreg

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// schema identifies the report format. Bump on incompatible changes so a
// stale baseline fails loudly instead of comparing garbage.
const schema = "nicbarrier-bench/v1"

// Metric is one named measurement, aggregated over the run's repeats.
type Metric struct {
	// Name is the stable slash-separated metric name, e.g.
	// "fig5/NIC-DS/n16" or "fig8a/wall_ns".
	Name string `json:"name"`
	// Unit: "sim_us" (simulated microseconds), "pkts" (wire packets per
	// barrier), "x" (improvement ratio, higher is better), "ns/op"
	// (wall-clock nanoseconds per scenario reproduction), "ns/ev"
	// (wall-clock nanoseconds per simulated event), "allocs/ev" (heap
	// allocations per simulated event).
	Unit string `json:"unit"`
	// Value is the median across repeats.
	Value float64 `json:"value"`
	// Spread is max-min across repeats: zero for deterministic
	// simulated metrics, nonzero for wall-clock ones. The comparator
	// widens its tolerance by the observed spread.
	Spread float64 `json:"spread,omitempty"`
}

// RunConfig records how the report was measured, enough to reproduce it.
type RunConfig struct {
	Fidelity  string   `json:"fidelity"` // "quick" or "paper"
	Warmup    int      `json:"warmup"`
	Iters     int      `json:"iters"`
	Repeats   int      `json:"repeats"`
	Scenarios []string `json:"scenarios"`
}

// Report is one full benchmark run in machine-readable form.
type Report struct {
	Schema  string    `json:"schema"`
	GitRev  string    `json:"git_rev"`
	Seed    uint64    `json:"seed"`
	Config  RunConfig `json:"config"`
	Metrics []Metric  `json:"metrics"`
}

// knownUnits lists every unit the harness emits; Validate rejects others
// so a typo cannot silently escape the comparator's per-unit policy.
var knownUnits = map[string]bool{
	"sim_us":    true,
	"pkts":      true,
	"x":         true,
	"ns/op":     true,
	"ns/ev":     true,
	"allocs/ev": true,
	// Multi-tenant workload metrics: throughput in kilo-operations per
	// simulated second and Jain's fairness index.
	"kops/s": true,
	"jain":   true,
	// Partitioned-simulation metrics: measured wall-clock speedup of a
	// sharded run over its single-partition twin (informational; the
	// deterministic load-balance bound gates under "x") and lookahead
	// window counts.
	"speedup": true,
	"count":   true,
	// Memory footprint per endpoint of a sharded run: live-heap growth
	// divided by endpoint count. Host-side like wall time, so it rides
	// in reports as informational rather than gating.
	"B/ep": true,
}

// Validate checks the report is schema-compatible and internally
// consistent: correct schema string, at least one metric, no duplicate
// names, known units, finite values.
func (r *Report) Validate() error {
	if r.Schema != schema {
		return fmt.Errorf("benchreg: schema %q, want %q", r.Schema, schema)
	}
	if len(r.Metrics) == 0 {
		return fmt.Errorf("benchreg: report has no metrics")
	}
	seen := make(map[string]bool, len(r.Metrics))
	for _, m := range r.Metrics {
		if m.Name == "" {
			return fmt.Errorf("benchreg: metric with empty name")
		}
		if seen[m.Name] {
			return fmt.Errorf("benchreg: duplicate metric %q", m.Name)
		}
		seen[m.Name] = true
		if !knownUnits[m.Unit] {
			return fmt.Errorf("benchreg: metric %q has unknown unit %q", m.Name, m.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("benchreg: metric %q has non-finite value %v", m.Name, m.Value)
		}
		if m.Spread < 0 || math.IsNaN(m.Spread) || math.IsInf(m.Spread, 0) {
			return fmt.Errorf("benchreg: metric %q has bad spread %v", m.Name, m.Spread)
		}
	}
	return nil
}

// Metric returns the named metric, if present.
func (r *Report) Metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Filename is the canonical output name for this report: BENCH_<rev>.json.
func (r *Report) Filename() string {
	rev := r.GitRev
	if rev == "" {
		rev = "unknown"
	}
	return "BENCH_" + rev + ".json"
}

// WriteFile validates and writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	if err := r.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads and validates a report.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchreg: %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// gitRev returns the abbreviated HEAD revision of the working tree, or
// "unknown" outside a git checkout. Reports are tagged with it so a
// directory of BENCH_*.json files reads as a perf history.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if rev == "" {
		return "unknown"
	}
	return rev
}

// median returns the median of xs (mean of the middle pair for even
// lengths). It is the aggregation the collector applies across repeats:
// robust to a single noisy run in a way the mean is not.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
