package metricsrv

import (
	"strings"
	"testing"

	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
)

func TestPromEscape(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{`plain`, `plain`},
		{`a"b`, `a\"b`},
		{"a\nb", `a\nb`},
		{`a\b`, `a\\b`},
		{"q\"\\\n", `q\"\\\n`},
	} {
		if got := promEscape(tc.in); got != tc.want {
			t.Errorf("promEscape(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestTenantSeriesPerScope pins that tenant series are never pooled
// across a run's scopes: two data points that each bind a tenant 0
// give two series with their own counts, while two groups one scope
// binds to the same tenant (a reconfiguration's rebinding) merge.
func TestTenantSeriesPerScope(t *testing.T) {
	tr := obs.NewTracer()
	a := tr.NewScope("point a")
	b := tr.NewScope("point b")
	a.BindGroupTenant(0, 0)
	a.BindGroupTenant(1, 0) // rebound after a reconfiguration
	b.BindGroupTenant(0, 0)
	for i := 0; i < 2; i++ {
		a.OpSpan(0, "barrier", 0, 0, sim.Time(4*sim.Microsecond))
	}
	a.OpSpan(1, "barrier", 0, 0, sim.Time(4*sim.Microsecond))
	for i := 0; i < 5; i++ {
		b.OpSpan(0, "barrier", 0, 0, sim.Time(2*sim.Microsecond))
	}
	run := New().Register("pts", "test", tr)
	run.Finish("", nil)
	var buf strings.Builder
	WritePrometheus(&buf, []*Run{run})
	text := buf.String()
	for _, want := range []string{
		`nicbarrier_latency_us_count{run="pts",scope="point a",scope_index="0",tenant="0",kind="barrier"} 3` + "\n",
		`nicbarrier_latency_us_count{run="pts",scope="point b",scope_index="1",tenant="0",kind="barrier"} 5` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if n := strings.Count(text, "nicbarrier_latency_us_count{"); n != 2 {
		t.Errorf("%d latency count series, want one per scope:\n%s", n, text)
	}
}

// TestFamiliesContiguous pins the exposition format's grouping rule:
// with two runs of two scopes of two tenants each, every family is one
// block — its # HELP and # TYPE lines, then every sample of it — and no
// family starts twice.
func TestFamiliesContiguous(t *testing.T) {
	srv := New()
	var runs []*Run
	for _, name := range []string{"first", "second"} {
		tr := obs.NewTracer()
		for _, scope := range []string{"point a", "point b"} {
			sc := tr.NewScope(scope)
			sc.BindGroupTenant(0, 0)
			sc.BindGroupTenant(1, 1)
			sc.OpSpan(0, "barrier", 0, 0, sim.Time(4*sim.Microsecond))
			sc.OpSpan(1, "allreduce", 0, 0, sim.Time(3*sim.Microsecond))
		}
		run := srv.Register(name, "test", tr)
		run.Finish("", nil)
		runs = append(runs, run)
	}
	var buf strings.Builder
	WritePrometheus(&buf, runs)
	started := map[string]bool{}
	family, samples := "", 0
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name := strings.Fields(line)[2]
			if started[name] {
				t.Fatalf("line %d: family %s starts a second time", i+1, name)
			}
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+name+" ") {
				t.Fatalf("line %d: # HELP %s not followed by its # TYPE", i+1, name)
			}
			started[name], family = true, name
		case strings.HasPrefix(line, "# TYPE "):
		default:
			name, _, _ := strings.Cut(line, "{")
			if name != family {
				t.Fatalf("line %d: %s sample inside family %s", i+1, name, family)
			}
			samples++
		}
	}
	if len(started) != len(promFamilies) {
		t.Errorf("%d families written, want %d", len(started), len(promFamilies))
	}
	// 5 scope families × 4 scopes; per tenant 9 one-sample families,
	// 4 drop reasons and 3 quantiles + sum + count + max, × 8 tenants.
	if want := 5*4 + (9+4+6)*8; samples != want {
		t.Errorf("%d samples, want %d", samples, want)
	}
}
