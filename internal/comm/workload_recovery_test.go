package comm

import (
	"testing"

	"nicbarrier/internal/fault"
	"nicbarrier/internal/obs"
)

// A multi-tenant workload with one crashed node must finish every
// tenant's stream: the victim's tenant detects, evicts and retries; the
// disjoint tenants never notice. Exercises the epoch-aware allreduce
// verification (the mix is allreduce-only, so the surviving membership
// reduces over fewer ranks after the eviction).
func TestWorkloadSurvivesPermanentCrash(t *testing.T) {
	c := xpComm(16)
	c.My.SetFaults(fault.NewPlan(21, fault.Crash(0, fault.Window{})))
	spec := WorkloadSpec{
		Tenants:      4,
		OpsPerTenant: 8,
		Mix:          OpMix{Allreduce: 1},
		Seed:         9,
		Recovery:     quickRecovery(),
	}
	res, err := RunWorkload(c, spec)
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	if res.FailedTenants != 0 {
		t.Fatalf("%d tenants failed terminally: %+v", res.FailedTenants, res.Tenants)
	}
	if res.TotalOps != spec.Tenants*spec.OpsPerTenant {
		t.Fatalf("completed %d of %d ops", res.TotalOps, spec.Tenants*spec.OpsPerTenant)
	}
	if res.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (only node 0 crashed)", res.Evictions)
	}
	victims := 0
	for _, tr := range res.Tenants {
		if tr.Ops != spec.OpsPerTenant {
			t.Fatalf("tenant %d completed %d of %d ops", tr.Tenant, tr.Ops, spec.OpsPerTenant)
		}
		if tr.Evicted > 0 {
			victims++
			if tr.Retries == 0 {
				t.Fatalf("tenant %d evicted without a retry: %+v", tr.Tenant, tr)
			}
			if tr.Size != 3 {
				t.Fatalf("victim tenant %d size %d after eviction, want 3", tr.Tenant, tr.Size)
			}
		} else if tr.Retries != 0 {
			t.Fatalf("healthy tenant %d retried: %+v", tr.Tenant, tr)
		}
	}
	// Disjoint placement over 16 nodes puts the crashed node in exactly
	// one tenant's membership.
	if victims != 1 {
		t.Fatalf("%d tenants evicted members, want 1", victims)
	}
}

// A healthy cluster with recovery armed completes with zero survival
// events: the deadline/heartbeat machinery is pure overhead-watching,
// never intervention.
func TestWorkloadRecoveryArmedHealthy(t *testing.T) {
	c := xpComm(16)
	spec := WorkloadSpec{
		Tenants:      4,
		OpsPerTenant: 6,
		Mix:          OpMix{Barrier: 1, Allreduce: 1},
		Seed:         3,
		Recovery:     quickRecovery(),
	}
	res, err := RunWorkload(c, spec)
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	if res.FailedTenants != 0 || res.Evictions != 0 {
		t.Fatalf("healthy run reported failures: %+v", res)
	}
	for _, tr := range res.Tenants {
		if tr.Failed || tr.Evicted != 0 || tr.Retries != 0 {
			t.Fatalf("healthy tenant %d reported survival events: %+v", tr.Tenant, tr)
		}
		if tr.Ops != spec.OpsPerTenant {
			t.Fatalf("tenant %d completed %d of %d ops", tr.Tenant, tr.Ops, spec.OpsPerTenant)
		}
	}
}

// With a two-node tenant the detector cannot discriminate (the only
// peer is silent either way), so eviction would strand the group below
// the minimum size: the victim tenant fails terminally, is reported
// Failed with zero latency stats, and the rest of the workload still
// completes and aggregates without dividing by its empty stream.
func TestWorkloadReportsTerminalFailure(t *testing.T) {
	c := xpComm(8)
	c.My.SetFaults(fault.NewPlan(5, fault.Crash(0, fault.Window{})))
	spec := WorkloadSpec{
		Tenants:      4, // 8 nodes / 4 tenants = pairs
		OpsPerTenant: 5,
		Seed:         1,
		Recovery:     quickRecovery(),
	}
	res, err := RunWorkload(c, spec)
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	if res.FailedTenants != 1 {
		t.Fatalf("failed tenants = %d, want 1: %+v", res.FailedTenants, res.Tenants)
	}
	for _, tr := range res.Tenants {
		if tr.Failed {
			if tr.Ops != 0 || tr.MeanUS != 0 || tr.OpsPerSec != 0 {
				t.Fatalf("failed tenant %d has nonzero stats: %+v", tr.Tenant, tr)
			}
			continue
		}
		if tr.Ops != spec.OpsPerTenant {
			t.Fatalf("healthy tenant %d completed %d of %d ops", tr.Tenant, tr.Ops, spec.OpsPerTenant)
		}
	}
	if res.TotalOps != 3*spec.OpsPerTenant {
		t.Fatalf("TotalOps = %d, want %d", res.TotalOps, 3*spec.OpsPerTenant)
	}
	if res.Fairness <= 0 || res.Fairness > 1 {
		t.Fatalf("fairness %v not in (0, 1] with an empty tenant stream", res.Fairness)
	}
}

// crashedWorkloadRows runs TestWorkloadSurvivesPermanentCrash's workload
// on a traced cluster and returns its tenant-merged snapshot rows.
func crashedWorkloadRows(t *testing.T) []obs.GroupSnapshot {
	t.Helper()
	sc := obs.NewTracer().NewScope("crash")
	c := tracedXpComm(16, sc)
	c.My.SetFaults(fault.NewPlan(21, fault.Crash(0, fault.Window{})))
	res, err := RunWorkload(c, WorkloadSpec{
		Tenants:      4,
		OpsPerTenant: 8,
		Mix:          OpMix{Allreduce: 1},
		Seed:         9,
		Recovery:     quickRecovery(),
	})
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	if res.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", res.Evictions)
	}
	rows := sc.Snapshot().MergeTenants()
	if len(rows) != 4 {
		t.Fatalf("tenant-merged rows = %d, want 4: %+v", len(rows), rows)
	}
	return rows
}

// The eviction rebuilds the victim tenant's group under a new ID; the
// rebuild binds that ID to the tenant, so the victim's row counts every
// completed op instead of leaving them under an unbound group.
func TestRecoveryRebuildKeepsTenantLabel(t *testing.T) {
	for _, r := range crashedWorkloadRows(t) {
		if r.Ops != 8 {
			t.Errorf("tenant %d: ops = %d, want 8", r.Tenant, r.Ops)
		}
	}
}

// A tenant that retried still emits one span per completed op: every
// row's span count and latency histogram cover all 8 ops.
func TestRetriedTenantEmitsSpans(t *testing.T) {
	for _, r := range crashedWorkloadRows(t) {
		if r.Ops != 8 || r.Latency.Count != 8 {
			t.Errorf("tenant %d: ops = %d, latency count = %d, want 8 each", r.Tenant, r.Ops, r.Latency.Count)
		}
	}
}
