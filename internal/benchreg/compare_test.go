package benchreg

import (
	"math"
	"strings"
	"testing"
)

// mkReport builds a minimal valid report around the given metrics.
func mkReport(rev string, ms ...Metric) *Report {
	return &Report{
		Schema:  schema,
		GitRev:  rev,
		Seed:    1,
		Config:  RunConfig{Fidelity: "quick", Warmup: 1, Iters: 1, Repeats: 1, Scenarios: []string{"t"}},
		Metrics: ms,
	}
}

func mustCompare(t *testing.T, base, cur *Report, pol Policy) Result {
	t.Helper()
	res, err := Compare(base, cur, pol)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	return res
}

func TestCompareIdenticalPasses(t *testing.T) {
	r := mkReport("aaa",
		Metric{Name: "fig5/NIC-DS/n16", Unit: "sim_us", Value: 25.72},
		Metric{Name: "packets/Collective/n16", Unit: "pkts", Value: 64},
	)
	res := mustCompare(t, r, r, DefaultPolicy())
	if res.Failed() {
		t.Fatalf("identical reports failed the gate: %s", res.Render(true))
	}
	if len(res.Deltas) != 2 || len(res.Missing) != 0 || len(res.New) != 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

func TestCompareMissingMetric(t *testing.T) {
	base := mkReport("aaa",
		Metric{Name: "a", Unit: "sim_us", Value: 1},
		Metric{Name: "b", Unit: "sim_us", Value: 2},
	)
	cur := mkReport("bbb", Metric{Name: "a", Unit: "sim_us", Value: 1})
	res := mustCompare(t, base, cur, DefaultPolicy())
	if !res.Failed() {
		t.Fatal("missing baseline metric did not fail the gate")
	}
	if len(res.Missing) != 1 || res.Missing[0] != "b" {
		t.Fatalf("missing = %v", res.Missing)
	}
	// Gate can be configured to tolerate coverage loss.
	pol := DefaultPolicy()
	pol.FailOnMissing = false
	if res := mustCompare(t, base, cur, pol); res.Failed() {
		t.Fatal("FailOnMissing=false still failed")
	}
}

func TestCompareNewMetricPasses(t *testing.T) {
	base := mkReport("aaa", Metric{Name: "a", Unit: "sim_us", Value: 1})
	cur := mkReport("bbb",
		Metric{Name: "a", Unit: "sim_us", Value: 1},
		Metric{Name: "z/new", Unit: "sim_us", Value: 99},
	)
	res := mustCompare(t, base, cur, DefaultPolicy())
	if res.Failed() {
		t.Fatal("new metric failed the gate; it should only be reported")
	}
	if len(res.New) != 1 || res.New[0] != "z/new" {
		t.Fatalf("new = %v", res.New)
	}
	if !strings.Contains(res.Render(false), "z/new") {
		t.Fatal("render does not mention the new metric")
	}
}

func TestCompareZeroBaselineUsesAbsOnly(t *testing.T) {
	pol := Policy{Default: Threshold{Rel: 0.10, Abs: 0.5}}
	base := mkReport("aaa", Metric{Name: "m", Unit: "sim_us", Value: 0})
	within := mkReport("bbb", Metric{Name: "m", Unit: "sim_us", Value: 0.5})
	res := mustCompare(t, base, within, pol)
	if res.Failed() {
		t.Fatalf("zero baseline: +0.5 within abs 0.5 failed: %s", res.Render(true))
	}
	if !math.IsNaN(res.Deltas[0].Rel) {
		t.Fatalf("rel delta against zero baseline = %v, want NaN", res.Deltas[0].Rel)
	}
	over := mkReport("ccc", Metric{Name: "m", Unit: "sim_us", Value: 0.51})
	if res := mustCompare(t, base, over, pol); !res.Failed() {
		t.Fatal("zero baseline: +0.51 beyond abs 0.5 passed")
	}
}

// The boundary is inclusive: a move of exactly the tolerance passes,
// the smallest representable step beyond it fails.
func TestCompareThresholdBoundary(t *testing.T) {
	pol := Policy{Default: Threshold{Rel: 0.02, Abs: 0}}
	base := mkReport("aaa", Metric{Name: "m", Unit: "sim_us", Value: 100})
	at := mkReport("bbb", Metric{Name: "m", Unit: "sim_us", Value: 102}) // exactly +2%
	if res := mustCompare(t, base, at, pol); res.Failed() {
		t.Fatalf("move exactly at tolerance failed: %s", res.Render(true))
	}
	beyond := mkReport("ccc", Metric{Name: "m", Unit: "sim_us", Value: 102.0001})
	res := mustCompare(t, base, beyond, pol)
	if !res.Failed() {
		t.Fatal("move beyond tolerance passed")
	}
	regs := res.regressions()
	if len(regs) != 1 || regs[0].Name != "m" {
		t.Fatalf("regressions = %+v", regs)
	}
	if !strings.Contains(res.Render(false), "FAIL") {
		t.Fatal("render of a failing comparison lacks FAIL line")
	}
}

func TestCompareImprovementDoesNotFail(t *testing.T) {
	base := mkReport("aaa", Metric{Name: "m", Unit: "sim_us", Value: 100})
	cur := mkReport("bbb", Metric{Name: "m", Unit: "sim_us", Value: 50})
	res := mustCompare(t, base, cur, DefaultPolicy())
	if res.Failed() {
		t.Fatal("a large latency drop failed the gate")
	}
	if !res.Deltas[0].Improved {
		t.Fatalf("delta not marked improved: %+v", res.Deltas[0])
	}
}

// Exact units fail in BOTH directions: a packet count that drops means
// the protocol silently stopped sending traffic it should.
func TestCompareExactUnitsGateBothDirections(t *testing.T) {
	base := mkReport("aaa", Metric{Name: "packets/Collective/n16", Unit: "pkts", Value: 64})
	fewer := mkReport("bbb", Metric{Name: "packets/Collective/n16", Unit: "pkts", Value: 32})
	res := mustCompare(t, base, fewer, DefaultPolicy())
	if !res.Failed() {
		t.Fatal("packet-count decrease passed the gate")
	}
	if res.Deltas[0].Improved {
		t.Fatalf("packet drop marked improved: %+v", res.Deltas[0])
	}
	more := mkReport("ccc", Metric{Name: "packets/Collective/n16", Unit: "pkts", Value: 65})
	if res := mustCompare(t, base, more, DefaultPolicy()); !res.Failed() {
		t.Fatal("packet-count increase passed the gate")
	}
}

func TestCompareHigherIsBetterUnits(t *testing.T) {
	// "x" is an improvement ratio: dropping is the regression direction.
	base := mkReport("aaa", Metric{Name: "summary/imp", Unit: "x", Value: 3.0})
	worse := mkReport("bbb", Metric{Name: "summary/imp", Unit: "x", Value: 2.0})
	if res := mustCompare(t, base, worse, DefaultPolicy()); !res.Failed() {
		t.Fatal("ratio drop passed the gate")
	}
	better := mkReport("ccc", Metric{Name: "summary/imp", Unit: "x", Value: 4.0})
	res := mustCompare(t, base, better, DefaultPolicy())
	if res.Failed() {
		t.Fatal("ratio rise failed the gate")
	}
	if !res.Deltas[0].Improved {
		t.Fatalf("ratio rise not marked improved: %+v", res.Deltas[0])
	}
}

func TestCompareInformationalUnitsNeverGate(t *testing.T) {
	base := mkReport("aaa", Metric{Name: "fig5/wall_ns", Unit: "ns/op", Value: 1e6})
	cur := mkReport("bbb", Metric{Name: "fig5/wall_ns", Unit: "ns/op", Value: 1e9})
	res := mustCompare(t, base, cur, DefaultPolicy())
	if res.Failed() {
		t.Fatal("wall-clock blowup failed the gate; ns/op must stay informational")
	}
	if !res.Deltas[0].Informational {
		t.Fatalf("delta not marked informational: %+v", res.Deltas[0])
	}
	// Noise must not be advertised as an improvement either.
	down := mkReport("ccc", Metric{Name: "fig5/wall_ns", Unit: "ns/op", Value: 1e3})
	res = mustCompare(t, base, down, DefaultPolicy())
	if res.Deltas[0].Improved || res.Deltas[0].Regressed {
		t.Fatalf("informational delta flagged: %+v", res.Deltas[0])
	}
}

func TestCompareNoiseWidensTolerance(t *testing.T) {
	pol := Policy{Default: Threshold{Rel: 0, Abs: 1}, NoiseMult: 2}
	base := mkReport("aaa", Metric{Name: "m", Unit: "sim_us", Value: 10, Spread: 3})
	// +6 is far beyond abs 1, but within 1 + 2*3 = 7.
	cur := mkReport("bbb", Metric{Name: "m", Unit: "sim_us", Value: 16})
	if res := mustCompare(t, base, cur, pol); res.Failed() {
		t.Fatalf("noise-widened tolerance not applied: %s", res.Render(true))
	}
	// The larger spread of the two sides wins.
	cur2 := mkReport("ccc", Metric{Name: "m", Unit: "sim_us", Value: 16, Spread: 0.1})
	if res := mustCompare(t, base, cur2, pol); res.Failed() {
		t.Fatal("baseline spread ignored when current spread is smaller")
	}
	quiet := mkReport("ddd", Metric{Name: "m", Unit: "sim_us", Value: 10})
	if res := mustCompare(t, quiet, cur2, pol); !res.Failed() {
		t.Fatal("spread-free pair should gate on abs 1 alone")
	}
}

func TestComparePerMetricOverrides(t *testing.T) {
	pol := Policy{
		Default:   Threshold{Rel: 0.01},
		PerMetric: map[string]Threshold{"fig8a/": {Rel: 0.50}, "fig8a/Measured/n2": {Rel: 0.001}},
	}
	base := mkReport("aaa",
		Metric{Name: "fig8a/Measured/n1024", Unit: "sim_us", Value: 100},
		Metric{Name: "fig8a/Measured/n2", Unit: "sim_us", Value: 100},
	)
	cur := mkReport("bbb",
		Metric{Name: "fig8a/Measured/n1024", Unit: "sim_us", Value: 120}, // +20%, under prefix 50%
		Metric{Name: "fig8a/Measured/n2", Unit: "sim_us", Value: 100.2},  // +0.2%, over exact 0.1%
	)
	res := mustCompare(t, base, cur, pol)
	regs := res.regressions()
	if len(regs) != 1 || regs[0].Name != "fig8a/Measured/n2" {
		t.Fatalf("exact override did not beat prefix override: %+v", regs)
	}
}

func TestCompareUnitChangeErrors(t *testing.T) {
	base := mkReport("aaa", Metric{Name: "m", Unit: "sim_us", Value: 1})
	cur := mkReport("bbb", Metric{Name: "m", Unit: "pkts", Value: 1})
	if _, err := Compare(base, cur, DefaultPolicy()); err == nil {
		t.Fatal("unit change did not error")
	}
}

// Mismatched measurement loops must error out, not masquerade as mass
// regressions.
func TestCompareIncompatibleConfigs(t *testing.T) {
	base := mkReport("aaa", Metric{Name: "m", Unit: "sim_us", Value: 1})
	for _, mut := range []func(*Report){
		func(r *Report) { r.Seed = 99 },
		func(r *Report) { r.Config.Fidelity = "paper" },
		func(r *Report) { r.Config.Warmup = 77 },
		func(r *Report) { r.Config.Iters = 77 },
	} {
		cur := mkReport("bbb", Metric{Name: "m", Unit: "sim_us", Value: 1})
		mut(cur)
		if _, err := Compare(base, cur, DefaultPolicy()); err == nil {
			t.Errorf("incompatible configs accepted: %+v vs %+v (seed %d)", base.Config, cur.Config, cur.Seed)
		}
	}
	// Differing repeats are fine: the spread machinery absorbs them.
	cur := mkReport("bbb", Metric{Name: "m", Unit: "sim_us", Value: 1})
	cur.Config.Repeats = 9
	if _, err := Compare(base, cur, DefaultPolicy()); err != nil {
		t.Errorf("differing repeats rejected: %v", err)
	}
}

func TestCompareRejectsInvalidReports(t *testing.T) {
	bad := mkReport("aaa") // no metrics
	good := mkReport("bbb", Metric{Name: "m", Unit: "sim_us", Value: 1})
	if _, err := Compare(bad, good, DefaultPolicy()); err == nil {
		t.Fatal("invalid baseline accepted")
	}
	if _, err := Compare(good, bad, DefaultPolicy()); err == nil {
		t.Fatal("invalid current accepted")
	}
}
