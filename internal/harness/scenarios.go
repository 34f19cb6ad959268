package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// A Scenario is one registerable named workload: a paper figure, a
// summary table, an ablation, or any future sweep. Registering a
// scenario makes it runnable by ID from every front end at once — the
// barrier-bench CLI, the test suite, and the benchgate regression
// reports — so new workloads auto-appear in BENCH_*.json without
// touching the reporting layer.
//
// Exactly one of Figure or Table must be set.
type Scenario struct {
	// ID is the stable experiment identifier ("fig5", "faults", ...).
	// It prefixes every metric name the scenario contributes to a
	// benchmark report, so renaming an ID invalidates baselines.
	ID string
	// Title is a one-line human description for listings.
	Title string
	// Figure produces a multi-series sweep figure.
	Figure func(Config) Figure
	// Table produces a paper-vs-measured comparison table.
	Table func(Config) Table
}

// render runs the scenario and formats it as an aligned text table.
func (s Scenario) render(cfg Config) string {
	if s.Figure != nil {
		return s.Figure(cfg).table()
	}
	return s.Table(cfg).render()
}

// tsv runs the scenario and formats it as tab-separated values.
// Comparison tables have no TSV form and fall back to Render.
func (s Scenario) tsv(cfg Config) string {
	if s.Figure != nil {
		return s.Figure(cfg).tsv()
	}
	return s.Table(cfg).render()
}

// Points runs the scenario and flattens it into named metric values for
// machine-readable reports.
func (s Scenario) Points(cfg Config) []NamedValue {
	if s.Figure != nil {
		return s.Figure(cfg).toPoints()
	}
	return s.Table(cfg).toPoints()
}

var (
	registryMu sync.Mutex
	registry   []Scenario
)

// registerScenario adds a scenario to the global registry. It panics on
// a duplicate or ambiguous registration — scenario IDs name metrics in
// committed baselines, so collisions are programmer errors worth
// failing loudly on.
func registerScenario(s Scenario) {
	if s.ID == "" {
		panic("harness: scenario with empty ID")
	}
	if (s.Figure == nil) == (s.Table == nil) {
		panic(fmt.Sprintf("harness: scenario %q must set exactly one of Figure or Table", s.ID))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	for _, have := range registry {
		if have.ID == s.ID {
			panic(fmt.Sprintf("harness: duplicate scenario %q", s.ID))
		}
	}
	registry = append(registry, s)
}

// Scenarios returns every registered scenario in registration order.
func Scenarios() []Scenario {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := make([]Scenario, len(registry))
	copy(out, registry)
	return out
}

// ScenarioByID looks a scenario up by its ID.
func ScenarioByID(id string) (Scenario, bool) {
	registryMu.Lock()
	defer registryMu.Unlock()
	for _, s := range registry {
		if s.ID == id {
			return s, true
		}
	}
	return Scenario{}, false
}

// Experiments lists every runnable experiment by ID, in registration
// order.
func Experiments() []string {
	registryMu.Lock()
	defer registryMu.Unlock()
	ids := make([]string, len(registry))
	for i, s := range registry {
		ids[i] = s.ID
	}
	return ids
}

// Run executes one experiment by ID, returning its rendered table.
func Run(id string, cfg Config) (string, error) {
	s, ok := ScenarioByID(id)
	if !ok {
		return "", fmt.Errorf("harness: unknown experiment %q (have %v)", id, Experiments())
	}
	return s.render(cfg), nil
}

// RunTSV executes one experiment by ID, returning its TSV rendering.
func RunTSV(id string, cfg Config) (string, error) {
	s, ok := ScenarioByID(id)
	if !ok {
		return "", fmt.Errorf("harness: unknown experiment %q (have %v)", id, Experiments())
	}
	return s.tsv(cfg), nil
}

// NamedValue is one flattened measurement: a stable slash-separated
// metric name, the unit it is expressed in, and the value. This is the
// exchange format between the harness and the benchreg report layer.
type NamedValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// metricName builds a slash-separated metric name from parts, replacing
// characters that would collide with the separator or JSON tooling.
func metricName(parts ...string) string {
	clean := make([]string, len(parts))
	for i, p := range parts {
		p = strings.ReplaceAll(p, "/", "-")
		p = strings.ReplaceAll(p, " ", "_")
		clean[i] = p
	}
	return strings.Join(clean, "/")
}

// toPoints flattens the figure into named metric values, one per
// (series, x) point, named "<figID>/<series>/n<N>". The unit is the
// figure's Unit, defaulting to simulated microseconds.
func (f Figure) toPoints() []NamedValue {
	unit := f.Unit
	if unit == "" {
		unit = "sim_us"
	}
	var out []NamedValue
	for _, s := range f.Series {
		su := s.Unit
		if su == "" {
			su = unit
		}
		for _, p := range s.Points {
			out = append(out, NamedValue{
				Name:  metricName(f.ID, s.Name, fmt.Sprintf("n%d", p.N)),
				Unit:  su,
				Value: p.LatencyUS,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// toPoints flattens the comparison table into named metric values, one
// per measured row. Top-level rows become "<tableID>/<metric>";
// indented sub-rows (the table's convention for derived quantities)
// nest under the preceding top-level row, which keeps repeated sub-row
// labels like "improvement over host-based barrier" unique. Paper
// reference values are constants, so only the measured column is
// exported.
func (t Table) toPoints() []NamedValue {
	var out []NamedValue
	context := ""
	for _, r := range t.Rows {
		unit := r.Unit
		if unit == "us" {
			unit = "sim_us"
		}
		label := strings.TrimSpace(r.Metric)
		name := metricName(t.ID, label)
		if strings.HasPrefix(r.Metric, " ") && context != "" {
			name = metricName(t.ID, context, label)
		} else {
			context = label
		}
		out = append(out, NamedValue{
			Name:  name,
			Unit:  unit,
			Value: r.Measured,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
