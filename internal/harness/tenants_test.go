package harness

import (
	"testing"

	"nicbarrier/internal/comm"
)

func tenantCfg() Config {
	return Config{Warmup: 2, Iters: 16, Seed: 1, Permute: true, Parallel: true}
}

// The registered multi-tenant scenario must show the throughput claim:
// aggregate ops/sec strictly climbing as the cluster is carved into more
// concurrent groups, with per-tenant latency falling and fairness high.
func TestMultiTenantScalesAggregate(t *testing.T) {
	fig := multiTenant(tenantCfg())
	var prevKops float64
	for i, n := range tenantCounts {
		kops, ok := fig.value("Agg-kops-per-sec", n)
		if !ok {
			t.Fatalf("missing throughput point at %d tenants", n)
		}
		if kops <= prevKops {
			t.Fatalf("throughput not increasing at %d tenants: %.1f after %.1f", n, kops, prevKops)
		}
		prevKops = kops
		fair, _ := fig.value("Fairness-Jain", n)
		if fair < 0.9 || fair > 1.0000001 {
			t.Fatalf("fairness %v at %d tenants", fair, n)
		}
		p50, _ := fig.value("Tenant-p50", n)
		p99, _ := fig.value("Tenant-p99-worst", n)
		if p50 <= 0 || p99 < p50 {
			t.Fatalf("latency points inconsistent at %d tenants: p50 %v p99 %v", n, p50, p99)
		}
		_ = i
	}
}

// Mixed-unit figures flatten with per-series units in reports.
func TestMultiTenantPointsUnits(t *testing.T) {
	s, ok := ScenarioByID("multi-tenant")
	if !ok {
		t.Fatal("multi-tenant scenario not registered")
	}
	units := map[string]string{}
	for _, p := range s.Points(tenantCfg()) {
		units[p.Name] = p.Unit
	}
	for name, want := range map[string]string{
		"multi-tenant/Agg-kops-per-sec/n8": "kops/s",
		"multi-tenant/Tenant-p50/n8":       "sim_us",
		"multi-tenant/Fairness-Jain/n8":    "jain",
	} {
		if units[name] != want {
			t.Fatalf("metric %q unit = %q, want %q (have %d metrics)", name, units[name], want, len(units))
		}
	}
}

// The mixed scenario is registered and runs with verified allreduce
// tenants.
func TestMultiTenantMixedRegistered(t *testing.T) {
	if _, ok := ScenarioByID("multi-tenant-mixed"); !ok {
		t.Fatal("multi-tenant-mixed scenario not registered")
	}
	res := measureTenants(tenantCfg(), 8, comm.WorkloadSpec{
		Mix:     comm.OpMix{Barrier: 2, Broadcast: 1, Allreduce: 1},
		Arrival: comm.ArrivalSpec{Kind: comm.ClosedLoop, MeanGapUS: 5},
	})
	if res.TotalOps != 8*tenantOps(tenantCfg()) {
		t.Fatalf("TotalOps = %d", res.TotalOps)
	}
	kinds := map[comm.OpKind]bool{}
	for _, tr := range res.Tenants {
		kinds[tr.Kind] = true
	}
	if len(kinds) < 2 {
		t.Fatalf("mix degenerated to %v", kinds)
	}
}
