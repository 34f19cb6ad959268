package benchreg

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"nicbarrier/internal/harness"
)

func TestValidate(t *testing.T) {
	ok := mkReport("aaa", Metric{Name: "m", Unit: "sim_us", Value: 1})
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Report)
	}{
		{"wrong schema", func(r *Report) { r.Schema = "bogus/v9" }},
		{"no metrics", func(r *Report) { r.Metrics = nil }},
		{"empty name", func(r *Report) { r.Metrics[0].Name = "" }},
		{"unknown unit", func(r *Report) { r.Metrics[0].Unit = "furlongs" }},
		{"NaN value", func(r *Report) { r.Metrics[0].Value = math.NaN() }},
		{"Inf value", func(r *Report) { r.Metrics[0].Value = math.Inf(1) }},
		{"negative spread", func(r *Report) { r.Metrics[0].Spread = -1 }},
		{"duplicate name", func(r *Report) { r.Metrics = append(r.Metrics, r.Metrics[0]) }},
	}
	for _, c := range cases {
		r := mkReport("aaa", Metric{Name: "m", Unit: "sim_us", Value: 1})
		c.mut(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestFilename(t *testing.T) {
	if got := (&Report{GitRev: "abc123"}).Filename(); got != "BENCH_abc123.json" {
		t.Fatalf("filename %q", got)
	}
	if got := (&Report{}).Filename(); got != "BENCH_unknown.json" {
		t.Fatalf("revless filename %q", got)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := mkReport("abc123",
		Metric{Name: "fig5/NIC-DS/n16", Unit: "sim_us", Value: 25.72, Spread: 0.5},
		Metric{Name: "fig5/wall_ns", Unit: "ns/op", Value: 1e6, Spread: 2e5},
	)
	path := filepath.Join(t.TempDir(), r.Filename())
	if err := r.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if back.GitRev != r.GitRev || back.Seed != r.Seed || len(back.Metrics) != len(r.Metrics) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	for i, m := range back.Metrics {
		if m != r.Metrics[i] {
			t.Fatalf("metric %d: %+v != %+v", i, m, r.Metrics[i])
		}
	}
	// Invalid reports are rejected on both ends.
	bad := mkReport("abc123")
	if err := bad.WriteFile(path); err == nil {
		t.Fatal("WriteFile accepted an invalid report")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("ReadFile of a missing path succeeded")
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("Median(nil) not NaN")
	}
	// median must not mutate its argument.
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median reordered input: %v", xs)
	}
}

// stubScenario registers nothing globally: Collect takes an explicit
// scenario list, so tests can feed synthetic figures.
func stubScenario(id string, vals ...float64) harness.Scenario {
	pts := make([]harness.Point, len(vals))
	for i, v := range vals {
		pts[i] = harness.Point{N: i + 2, LatencyUS: v}
	}
	return harness.Scenario{
		ID:    id,
		Title: "stub",
		Figure: func(harness.Config) harness.Figure {
			return harness.Figure{ID: id, Series: []harness.Series{{Name: "s", Points: pts}}}
		},
	}
}

func TestCollect(t *testing.T) {
	cfg := harness.Config{Warmup: 1, Iters: 2, Seed: 7}
	rep, err := Collect(cfg, "quick", 3, []harness.Scenario{stubScenario("stub", 1.5, 2.5)})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("collected report invalid: %v", err)
	}
	if rep.Seed != 7 || rep.Config.Repeats != 3 || rep.Config.Fidelity != "quick" {
		t.Fatalf("config not recorded: %+v", rep.Config)
	}
	m, ok := rep.Metric("stub/s/n2")
	if !ok || m.Value != 1.5 || m.Unit != "sim_us" || m.Spread != 0 {
		t.Fatalf("point metric: %+v (ok=%v)", m, ok)
	}
	wall, ok := rep.Metric("stub/wall_ns")
	if !ok || wall.Unit != "ns/op" || wall.Value < 0 {
		t.Fatalf("wall metric: %+v (ok=%v)", wall, ok)
	}

	if _, err := Collect(cfg, "quick", 0, []harness.Scenario{stubScenario("stub", 1)}); err == nil {
		t.Fatal("repeats=0 accepted")
	}
	if _, err := Collect(cfg, "quick", 1, nil); err == nil {
		t.Fatal("empty scenario list accepted")
	}
	if _, err := Collect(cfg, "quick", 1, []harness.Scenario{{
		ID: "empty", Figure: func(harness.Config) harness.Figure { return harness.Figure{ID: "empty"} },
	}}); err == nil {
		t.Fatal("scenario with no points accepted")
	}
}

// Collecting a real harness scenario end to end keeps the report layer
// honest against the thing it actually measures.
func TestCollectRealScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("real sweep in -short mode")
	}
	s, ok := harness.ScenarioByID("packets")
	if !ok {
		t.Fatal("packets scenario not registered")
	}
	cfg := harness.Config{Warmup: 2, Iters: 10, Seed: 1, Permute: true, Parallel: true}
	rep, err := Collect(cfg, "quick", 2, []harness.Scenario{s})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	m, ok := rep.Metric("packets/Collective/n16")
	if !ok || m.Unit != "pkts" || m.Value <= 0 {
		t.Fatalf("packets metric: %+v (ok=%v)", m, ok)
	}
	// A simulation-backed scenario reports its per-event simulator cost.
	perEv, ok := rep.Metric("packets/ns_per_event")
	if !ok || perEv.Unit != "ns/ev" || perEv.Value <= 0 {
		t.Fatalf("ns_per_event metric: %+v (ok=%v)", perEv, ok)
	}
	allocsEv, ok := rep.Metric("packets/allocs_per_event")
	if !ok || allocsEv.Unit != "allocs/ev" || allocsEv.Value < 0 {
		t.Fatalf("allocs_per_event metric: %+v (ok=%v)", allocsEv, ok)
	}
	// Determinism: same seed twice gives identical simulated values.
	// Wall-clock-derived units (ns/op, ns/ev, allocs/ev) are measured,
	// not simulated, and legitimately vary between runs.
	rep2, err := Collect(cfg, "quick", 2, []harness.Scenario{s})
	if err != nil {
		t.Fatalf("Collect 2: %v", err)
	}
	measured := map[string]bool{"ns/op": true, "ns/ev": true, "allocs/ev": true}
	for i, m := range rep.Metrics {
		if measured[m.Unit] {
			continue
		}
		if rep2.Metrics[i].Value != m.Value || rep2.Metrics[i].Spread != 0 {
			t.Fatalf("nondeterministic metric %q: %v vs %v (spread %v)",
				m.Name, m.Value, rep2.Metrics[i].Value, rep2.Metrics[i].Spread)
		}
	}
}

func TestGitRev(t *testing.T) {
	rev := gitRev()
	if rev == "" {
		t.Fatal("GitRev returned empty string")
	}
	if strings.ContainsAny(rev, " \n/") {
		t.Fatalf("GitRev %q contains separator characters", rev)
	}
}
