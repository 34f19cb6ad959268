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
		`nicbarrier_latency_us_count{run="pts",scope="point a",tenant="0",kind="barrier"} 3` + "\n",
		`nicbarrier_latency_us_count{run="pts",scope="point b",tenant="0",kind="barrier"} 5` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if n := strings.Count(text, "nicbarrier_latency_us_count{"); n != 2 {
		t.Errorf("%d latency count series, want one per scope:\n%s", n, text)
	}
}
