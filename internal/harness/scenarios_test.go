package harness

import (
	"math"
	"strings"
	"testing"
)

func TestRegistryHasAllExperiments(t *testing.T) {
	want := []string{"fig5", "fig6", "fig7", "fig8a", "fig8b", "summary", "ablation",
		"packets", "skew", "faults", "faults-burst", "faults-jitter",
		"crash-recovery", "recovery-deadline",
		"multi-tenant", "multi-tenant-mixed",
		"group-churn", "reconfigure-cost", "faults-victim-tenant",
		"multi-tenant-1024", "shard-scale",
		"faults-impair", "tenant-shapes", "churn-policies"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("experiments = %v", got)
	}
	for i, id := range want {
		if got[i] != id {
			t.Fatalf("experiment %d = %q, want %q (order is part of the contract)", i, got[i], id)
		}
	}
	for _, id := range want {
		s, ok := ScenarioByID(id)
		if !ok {
			t.Fatalf("scenario %q not registered", id)
		}
		if s.Title == "" {
			t.Errorf("scenario %q has no title", id)
		}
		if (s.Figure == nil) == (s.Table == nil) {
			t.Errorf("scenario %q does not have exactly one producer", id)
		}
	}
	if _, ok := ScenarioByID("nope"); ok {
		t.Fatal("unknown ID resolved")
	}
}

func TestRegisterScenarioRejectsBadInput(t *testing.T) {
	expectPanic := func(name string, s Scenario) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		registerScenario(s)
	}
	fig := func(Config) Figure { return Figure{} }
	expectPanic("empty ID", Scenario{Figure: fig})
	expectPanic("no producer", Scenario{ID: "x"})
	expectPanic("two producers", Scenario{ID: "x", Figure: fig, Table: func(Config) Table { return Table{} }})
	expectPanic("duplicate", Scenario{ID: "fig5", Figure: fig})
}

func TestRunTSV(t *testing.T) {
	if _, err := RunTSV("nope", tinyCfg()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	out, err := RunTSV("packets", tinyCfg())
	if err != nil {
		t.Fatalf("RunTSV: %v", err)
	}
	if !strings.HasPrefix(out, "N\t") {
		t.Fatalf("tsv output %.40q", out)
	}
	// Tables have no TSV form and fall back to the rendered table.
	s, _ := ScenarioByID("summary")
	if got := s.tsv(tinyCfg()); !strings.Contains(got, "measured") {
		t.Fatalf("summary TSV fallback missing header:\n%s", got)
	}
}

func TestFigureToPoints(t *testing.T) {
	f := Figure{
		ID: "figX",
		Series: []Series{
			{Name: "a/b c", Points: []Point{{16, 1.5}, {2, 0.5}}},
			{Name: "z", Points: []Point{{2, 3.25}}},
		},
	}
	pts := f.toPoints()
	if len(pts) != 3 {
		t.Fatalf("points = %+v", pts)
	}
	// Sorted by name; slashes and spaces sanitized out of series names.
	if pts[0].Name != "figX/a-b_c/n16" || pts[0].Value != 1.5 || pts[0].Unit != "sim_us" {
		t.Fatalf("point 0 = %+v", pts[0])
	}
	if pts[1].Name != "figX/a-b_c/n2" || pts[2].Name != "figX/z/n2" {
		t.Fatalf("points = %+v", pts)
	}

	f.Unit = "pkts"
	if got := f.toPoints()[0].Unit; got != "pkts" {
		t.Fatalf("explicit unit ignored: %q", got)
	}
}

func TestTableToPoints(t *testing.T) {
	tb := Table{
		ID: "tabX",
		Rows: []Row{
			{Metric: "Myrinet XP barrier", Unit: "us", Paper: 14.2, Measured: 14.0},
			{Metric: "  improvement over host", Unit: "x", Paper: 2.64, Measured: 2.7},
			{Metric: "Myrinet 9.1 barrier", Unit: "us", Paper: 25.72, Measured: 26.0},
			{Metric: "  improvement over host", Unit: "x", Paper: 3.38, Measured: 3.4},
		},
	}
	pts := tb.toPoints()
	if len(pts) != 4 {
		t.Fatalf("points = %+v", pts)
	}
	byName := map[string]NamedValue{}
	for _, p := range pts {
		if _, dup := byName[p.Name]; dup {
			t.Fatalf("duplicate name %q: indented sub-rows must nest under their parent", p.Name)
		}
		byName[p.Name] = p
	}
	p, ok := byName["tabX/Myrinet_XP_barrier/improvement_over_host"]
	if !ok || p.Unit != "x" || p.Value != 2.7 {
		t.Fatalf("nested sub-row: %+v (ok=%v); have %v", p, ok, pts)
	}
	if p := byName["tabX/Myrinet_XP_barrier"]; p.Unit != "sim_us" {
		t.Fatalf(`"us" not normalized to "sim_us": %+v`, p)
	}
}

func TestFigurePoint(t *testing.T) {
	f := Figure{Series: []Series{{Name: "a", Points: []Point{{2, 1.5}}}}}
	if v, ok := f.value("a", 2); !ok || v != 1.5 {
		t.Fatalf("Point(a,2) = %v, %v", v, ok)
	}
	if _, ok := f.value("a", 4); ok {
		t.Fatal("absent N resolved")
	}
	if _, ok := f.value("b", 2); ok {
		t.Fatal("absent series resolved")
	}
}

// The summary scenario must flatten without metric-name collisions and
// with finite values — it is part of every benchgate report.
func TestSummaryToPointsUnique(t *testing.T) {
	if testing.Short() {
		t.Skip("summary sweep in -short mode")
	}
	s, _ := ScenarioByID("summary")
	pts := s.Points(tinyCfg())
	seen := map[string]bool{}
	for _, p := range pts {
		if seen[p.Name] {
			t.Fatalf("duplicate metric %q", p.Name)
		}
		seen[p.Name] = true
		if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
			t.Fatalf("metric %q non-finite: %v", p.Name, p.Value)
		}
	}
	if len(pts) != 11 {
		t.Fatalf("summary points = %d, want 11 rows", len(pts))
	}
}

// value returns the value of one (series, N) data point of the figure.
func (f Figure) value(series string, n int) (float64, bool) {
	for _, s := range f.Series {
		if s.Name == series {
			return s.value(n)
		}
	}
	return 0, false
}
